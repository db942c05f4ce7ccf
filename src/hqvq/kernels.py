"""Hot numeric kernels: Euclidean distances between queries and a codebook.

Every distance the package computes goes through one numpy kernel,
``_distances``, so index decisions (argmin, threshold tests) are bit-consistent
across the encoder, the full-search baseline, training, the neighbor table and
the statistics code. There is one implementation.

Summation order: the kernel adds ``(v_d - q_d)**2`` one dimension at a time,
in index order, ``((s_0 + s_1) + s_2) + ...``, and takes ``sqrt`` of the sum
in place. Every caller therefore sees the same bits for the same pair.

Tiling: the batched functions process ``WINDOW_TILE`` query rows at a time,
so they have no per-query Python loop and never hold an M x N matrix.  Each
pass allocates two tile-rows x N float64 buffers once, the distances and a
scratch, and every tile reuses them.  ``nearest_many`` alone measures every
pair: it is the plain reference the tests and the benchmark check against.

Projection windows: ``window_tiles`` is the one tile loop the codec's passes
use: training's assignments, ``window_nearest``, ``nearest_other`` (each
codevector's distance to its nearest other one, whose minimum is delta0) and
``window_marked``, whose flat marked sets serve both the neighbor table and
the encoder's fact pass.  It measures only the codevectors that can matter,
after Ra and Kim's mean-ordered partial search (IEEE TCAS-II, 1993).  Let
p(x) = x . u on the mean axis u = (1, ..., 1) / sqrt(k).  Since u is a unit
vector, |p(x) - p(c)| <= ||x - c||, so no codevector whose projection lies
more than R from p(x) is within R of x.  The queries and the codevectors
are sorted by projection once, and each tile of consecutive queries is
measured once:

- The look: the contiguous run of codevectors whose projections lie within
  the previous tile's reach of the tile's, with at least ``FIRST_LOOK`` on
  each side of its middle row.  A row's smallest distance in the look bounds
  its nearest distance, so its reach is at most R = max(radius, that bound).
  The row is covered when the codevectors just outside the look lie farther
  than ``half_width(R)`` (below) on the mean axis; covered rows are yielded.
- The rows not covered are deferred with their bound.  After the last tile
  they run through the bounded pass: tiles in projection order, each
  measured once over the codevectors within ``half_width(R)`` of some row's
  projection.  A caller that already holds a bound (training holds each
  row's distance to its previous cell's new centroid) sends every row
  straight to the bounded pass.

The prune compares computed values, so every window reaches
``half_width`` of its row's reach R, whose docstring holds the margin's
proof: R is at least the row's computed distance to some codevector, and
the codevectors' own norms bound the rest.  A window keeps its boundary
(<= at both ends).  Every distance in a window is ``_distances`` for that
exact pair, with the same bits as a full row, and the window lists
codevectors in ascending index order, so argmin ties still go to the
smallest index.

Distinct rows: a block's distance row depends only on its values, so callers
that pass image blocks run the tiles over ``distinct_rows`` and gather the
results back to every block through its ``inverse``.  Smooth images repeat
most blocks: 5 366 of the 32 768 2 x 1 blocks of the benchmark's 256 x 256
synthetic photo (seed 1) are distinct.  The dedup is one stable lexsort.
Image blocks are exact integers in [0, 255], so it sorts ``uint16`` copies of
their columns, which numpy radix-sorts; equal keys and their order match the
float64 ones, so the result has the same bits.  It costs little even where
nearly every block is distinct, as on the benchmark's texture.
"""

from __future__ import annotations

import math

import numpy as np

# named in run reports next to the package versions
ACTIVE_IMPL = "numpy"

# Query rows per tile: a pass holds WINDOW_TILE x N float64 distances plus one
# scratch buffer of the same size.  The projections of a larger tile span a
# wider window; a smaller one pays numpy's per-call cost more often.
WINDOW_TILE = 128

# The first look of ``window_tiles`` takes at least this many codevectors on
# each side of the tile's middle row in projection order.
FIRST_LOOK = 4

# ``distinct_rows`` sorts uint16 keys when every entry is an integer in [0, NARROW_KEY_MAX].
NARROW_KEY_MAX = np.iinfo(np.uint16).max


def _distances(vcols, qcols, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the square root of the sum over d of ``(vcols[d] - qcols[d])**2``.

    ``vcols[d]`` is dimension d of all N codevectors, shape (N,). ``qcols[d]``
    is dimension d of the queries: a scalar for one query (``out`` of shape
    (N,)), a (T, 1) column for a tile (``out`` of shape (T, N)), or an (N,)
    row to pair query i with codevector i (``out`` of shape (N,)). The sum runs
    sequentially, ``((s_0 + s_1) + s_2) + ...``; ``tmp`` is scratch of
    ``out``'s shape.
    """
    np.subtract(vcols[0], qcols[0], out=out)
    np.multiply(out, out, out=out)
    for d in range(1, len(vcols)):
        np.subtract(vcols[d], qcols[d], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(out, tmp, out=out)
    return np.sqrt(out, out=out)


def rounding_bound(k: int) -> float:
    """Relative rounding bound g of the kernels' distances and projections in dimension k.

    A distance ``_distances`` computes (the sum, then ``sqrt``) is within
    g * d of the exact distance d, and x's computed coordinate on the mean
    axis (``projections``) or on the split axis (``split_projections``) is
    within g * ||x|| of the exact one.  g is Higham's gamma_{k+3} =
    (k+3)u / (1 - (k+3)u) with u = 2**-53: a squared difference carries 3
    roundings, the sum k - 1 more and ``sqrt`` one.  A coordinate is a sum
    of k' <= k signed components, k' - 1 roundings in any order, within
    gamma_{k'-1} of the sum of their magnitudes, at most sqrt(k') ||x||;
    dividing by sqrt(k') adds two (the root and the quotient).  So it is
    within gamma_{k'+1} ||x|| <= g ||x|| of the exact one.
    """
    ku = (k + 3) * 2.0**-53
    return ku / (1.0 - ku)


def projections(rows: np.ndarray) -> np.ndarray:
    """Each row's coordinate on the mean axis (1, ..., 1) / sqrt(k): its sum over sqrt(k).

    The sum runs over the columns in index order, ``((x_0 + x_1) + x_2) + ...``,
    as ``_distances`` sums.
    """
    total = rows[:, 0].copy()
    for d in range(1, rows.shape[1]):
        total += rows[:, d]
    total /= math.sqrt(rows.shape[1])
    return total


def split_projections(rows: np.ndarray) -> np.ndarray:
    """Each row's coordinate on the split axis, for k >= 2: its first half less its second half, over sqrt(k').

    The axis weighs the first k // 2 components +1 and the last k // 2 -1,
    over sqrt(k') with k' = 2 (k // 2); for odd k the middle component
    weighs 0.  It is a unit vector orthogonal to the mean axis, so with
    ``projections`` it spans a plane on which the block's distance to a
    codevector bounds their offset.  For a row-major 2 x 2 block it is
    (top - bottom) / 2, the first Haar detail of Lee and Chen's mean
    pyramid (IEEE Trans. Commun., 1995).  The sum runs in index order,
    ``((x_0 + x_1) - x_2) - ...``, as ``projections`` sums.
    """
    half = rows.shape[1] // 2
    total = rows[:, 0].copy()
    for d in range(1, half):
        total += rows[:, d]
    for d in range(rows.shape[1] - half, rows.shape[1]):
        total -= rows[:, d]
    total /= math.sqrt(2 * half)
    return total


def half_width(reach, k: int, norm):
    """The projection gap within which every codevector within ``reach`` of a query lies.

    reach + 4g (reach + (norm + 2 reach)), with ``rounding_bound(k)``'s g,
    elementwise over arrays; inf at an inf reach, and at a finite reach
    whose margin overflows (beyond about 1e307), with no warning.
    ``reach`` must be at least the query's computed distance to some
    codevector, and ``norm`` must bound every codevector's norm
    (``Codebook.norm_scale``, sqrt(k) max |c_d|).  Every strip on the mean
    axis takes this margin, and so does every disc on the plane of the mean
    and split axes (``neighborhood.DiscGrid``).

    Proof: s = norm + 2 reach bounds ||x|| and every ||c||, since
    ||x|| <= ||c|| + d(x, c) for a codevector c at computed distance at most
    reach, and a computed distance is at least half the exact one.  A
    codevector c' at computed distance at most reach lies at an exact one
    of at most reach / (1 - g), which bounds its exact offset from x on the
    unit mean axis, and on any two orthonormal axes its exact offset on
    their plane, a projection of x - c'.  Each computed coordinate, on the
    mean axis or the split axis, is within g s of the exact one
    (``rounding_bound``), so each computed offset is within 2g s of the
    exact one on one axis, and within 2 sqrt(2) g s < 3g s on the plane.
    So c''s computed gap, or its computed offset on the plane, is below
    reach (1 + 2g) + 3g s up to one rounding; the remaining 2g reach + g s
    covers the rounding of the gap and the strip's ends, or the disc test's.
    """
    with np.errstate(over="ignore"):
        return reach + 4.0 * rounding_bound(k) * (reach + (norm + 2.0 * reach))


def projection_order(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(``projections(rows)``, their argsort): the order ``window_tiles`` walks the rows in.

    Any order of equal projections serves, since each row's window covers
    its own reach, so the sort need not be stable; numpy's default sort is
    several times faster than its stable one on float64.
    """
    proj = projections(rows)
    return proj, np.argsort(proj)


def strip_counts(centers: np.ndarray, order: np.ndarray, axis: np.ndarray, half) -> np.ndarray:
    """How many entries of the ascending ``axis`` each c in ``centers`` counts in its strip.

    ``centers[order]`` is ascending, as ``projection_order`` gives it, and
    ``half`` is at least 0: one float, or one per axis entry.

    - One float: the strip is the center's, [c - half, c + half], and each
      count is ``searchsorted(axis, c + half, "right") - searchsorted(axis,
      c - half, "left")``, with the same bits for the ends.
    - An array: the strips are the entries' own, and c counts entry e when
      e - half[e] <= c <= e + half[e]: an interval-stabbing count,
      #{lower ends <= c} - #{upper ends < c}.

    Either way the searches run the other way: each axis entry is located
    among the sorted centers, or their sorted ends, which costs O(len(axis))
    searches rather than two per center.  The centers i that count e form
    the run [upto_e, below_e) of sorted positions, so one ``bincount`` of
    each end and one ``cumsum`` give every count.  Returns an int64 array.
    """
    c = centers[order]
    if np.ndim(half) == 0:
        # c - half and c + half stay ascending: rounding is monotone
        below = np.searchsorted(c - half, axis, side="right")
        upto = np.searchsorted(c + half, axis, side="left")
    else:
        below = np.searchsorted(c, axis + half, side="right")
        upto = np.searchsorted(c, axis - half, side="left")
    size = c.size + 1
    counts = np.empty(c.size, dtype=np.int64)
    counts[order] = np.cumsum(np.bincount(upto, minlength=size) - np.bincount(below, minlength=size))[:-1]
    return counts


def window_tiles(queries: np.ndarray, vectors: np.ndarray, radius: float, bound=None, order=None):
    """Yield (rows, cols, d): each tile's distances to the codevectors that can matter.

    ``rows`` indexes ``queries`` (at most WINDOW_TILE of them, in projection
    order), ``cols`` holds ascending indices into ``vectors``, and
    ``d[i, j]`` is the distance from ``queries[rows[i]]`` to
    ``vectors[cols[j]]``, the same bits as ``dist_to_all`` gives.  ``cols``
    contains every codevector within max(``radius``, the row's nearest
    distance) of each of the tile's rows, so argmin ties still go to the
    smallest index.  Every row is yielded exactly once.  ``d`` is a view of
    one of the two buffers the call allocates, each WINDOW_TILE x N floats
    (fewer rows when M is smaller): it is valid until the next step.

    One look per tile: the codevectors whose projections lie within the
    previous tile's widest covered reach of the tile's (its widest look
    minimum if it covered no row), and at least FIRST_LOOK on each side of
    its middle row.  A row is covered when the codevectors just outside the
    look, ``v_sorted[lo - 1]`` and ``v_sorted[hi]``, lie farther from its
    projection than ``half_width`` of its reach, max(``radius``, its look
    minimum).  Covered rows are yielded; the others are deferred with their
    look minimum, at least their computed nearest distance.  After the last
    tile, they run through the bounded pass: tiles in projection order,
    each measured once over p +- ``half_width``(max(``radius``, bound)).  A
    look minimum or a bound is at least the row's computed distance to some
    codevector, as ``half_width`` needs, and its norm is the codevectors',
    so no row widens another's margin.

    ``bound``, when given, is an (M,) array with ``bound[i]`` at least the
    computed nearest distance of ``queries[i]``, such as its distance to
    any one codevector; every row then goes straight to the bounded pass.
    ``order``, when given, is ``projection_order(queries)``, which a caller
    that needs it too computes once.
    Both arrays lie within ``as_rows``' 2**500 bound, so every projection
    and distance is finite and a window needs no overflow fallback; an inf
    bound's window is the whole codebook.
    """
    m, k = queries.shape
    n = vectors.shape[0]
    # bounds every codevector's norm, as Codebook.norm_scale does
    norm = math.sqrt(k) * float(np.abs(vectors).max())
    q_proj, q_order = projection_order(queries) if order is None else order
    v_proj = projections(vectors)
    v_order = np.argsort(v_proj, kind="stable")
    v_sorted = v_proj[v_order]
    vcols = np.ascontiguousarray(vectors.T)
    # every tile's distances and their scratch: a window is at most a tile x N
    full = min(WINDOW_TILE, m) * n
    out, tmp = np.empty(full), np.empty(full)

    def measure(rows, lo, hi):
        """(cols, d): the distances of ``rows`` to the codevectors at ``v_sorted[lo:hi]``, in ``out``."""
        cols = np.sort(v_order[lo:hi])
        shape = (rows.size, cols.size)
        size = math.prod(shape)
        d = out[:size].reshape(shape)
        return cols, _distances(vcols[:, cols], queries[rows].T[:, :, np.newaxis], d, tmp[:size].reshape(shape))

    def bounded(rows, bounds):
        """The bounded pass: each tile measured once over every row's reach."""
        for start in range(0, rows.size, WINDOW_TILE):
            tile = rows[start : start + WINDOW_TILE]
            p = q_proj[tile]
            half = half_width(np.maximum(radius, bounds[start : start + WINDOW_TILE]), k, norm)
            lo = np.searchsorted(v_sorted, float((p - half).min()), side="left")
            hi = np.searchsorted(v_sorted, float((p + half).max()), side="right")
            cols, d = measure(tile, lo, hi)
            yield tile, cols, d

    def look(rows, guess):
        """(covered rows, cols, their d, next guess): one tile's look; the rest is deferred."""
        p = q_proj[rows]
        mid = np.searchsorted(v_sorted, p[rows.size // 2])
        lo = min(np.searchsorted(v_sorted, p[0] - guess, side="left"), max(mid - FIRST_LOOK, 0))
        hi = max(np.searchsorted(v_sorted, p[-1] + guess, side="right"), min(mid + FIRST_LOOK, n))
        cols, d = measure(rows, lo, hi)
        nearest = d.min(axis=1)
        reach = np.maximum(radius, nearest)
        half = half_width(reach, k, norm)
        # covered: the codevectors just outside the look lie beyond the row's reach
        ok = np.ones(rows.size, dtype=bool)
        if lo > 0:
            ok &= v_sorted[lo - 1] < p - half
        if hi < n:
            ok &= v_sorted[hi] > p + half
        if ok.all():
            return rows, cols, d, float(reach.max())
        deferred.append((rows[~ok], nearest[~ok]))
        if not ok.any():
            return rows[:0], cols, None, float(reach.max())
        # the covered rows, compacted into the scratch buffer the next tile overwrites
        kept = tmp[: np.count_nonzero(ok) * cols.size].reshape(-1, cols.size)
        return rows[ok], cols, np.compress(ok, d, axis=0, out=kept), float(reach[ok].max())

    if bound is not None:
        yield from bounded(q_order, np.asarray(bound, dtype=np.float64)[q_order])
        return
    deferred = []  # (rows, bounds) of each tile's rows that its look did not cover
    guess = radius  # the look's reach
    for start in range(0, m, WINDOW_TILE):
        rows, cols, d, guess = look(q_order[start : start + WINDOW_TILE], guess)
        if rows.size:
            yield rows, cols, d
    if deferred:
        rows, bounds = zip(*deferred)
        yield from bounded(np.concatenate(rows), np.concatenate(bounds))


def dist_to_all(x: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Euclidean distance from ``x`` (k,) to every row of ``vectors`` (n, k)."""
    n = vectors.shape[0]
    return _distances(vectors.T, x, np.empty(n), np.empty(n))


def nearest_many(queries: np.ndarray, vectors: np.ndarray):
    """Nearest row of ``vectors`` for each row of ``queries``, measuring every pair.

    Returns (indices, distances); ties resolve to the smallest index.
    """
    m = queries.shape[0]
    idx = np.empty(m, dtype=np.int64)
    dist = np.empty(m)
    vcols = np.ascontiguousarray(vectors.T)
    out = np.empty((min(WINDOW_TILE, m), vectors.shape[0]))
    tmp = np.empty_like(out)
    for start in range(0, m, WINDOW_TILE):
        stop = min(start + WINDOW_TILE, m)
        qcols = queries[start:stop].T[:, :, np.newaxis]
        d = _distances(vcols, qcols, out[: stop - start], tmp[: stop - start])
        arg = d.argmin(axis=1)
        idx[start:stop] = arg
        dist[start:stop] = d[np.arange(stop - start), arg]
    return idx, dist


def window_nearest(queries: np.ndarray, vectors: np.ndarray, bound=None):
    """``nearest_many``'s result from ``window_tiles``: each row's window is its nearest distance.

    ``bound`` is as in ``window_tiles``: at least each row's computed nearest distance.
    """
    m = queries.shape[0]
    idx = np.empty(m, dtype=np.int64)
    dist = np.empty(m)
    for rows, cols, d in window_tiles(queries, vectors, 0.0, bound):
        arg = d.argmin(axis=1)
        idx[rows] = cols[arg]
        dist[rows] = d[np.arange(rows.size), arg]
    return idx, dist


def paired_distances(queries: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Distance from ``queries[i]`` to ``vectors[i]`` for each i, the bits a window gives that pair."""
    m = queries.shape[0]
    return _distances(vectors.T, queries.T, np.empty(m), np.empty(m))


def nearest_other(vectors: np.ndarray) -> np.ndarray:
    """Each row's distance to its nearest other row, as an (n,) array (n >= 2).

    One ``window_tiles(vectors, vectors, 0.0, bound)`` pass.  Row i's
    ``bound`` is the smaller of its two pair distances with the rows next to
    it in projection order (``projections``, the order ``window_tiles``
    sorts by; one at either end of the order): any other row's
    distance bounds the nearest one from above, and a row close on the mean
    axis is a likely close row.  Each row's window then holds every row
    within its bound, its nearest other row included, with the same bits as
    a full row; the row's distance to itself is set to inf.  Pair distances
    are symmetric to the bit, since (a - b)**2 == (b - a)**2, so the
    minimum of the result is the closest pair's distance.  When every row
    shares one projection (rows (a, -a), say) or a bound spans the
    codebook, every window holds every row.
    """
    n = vectors.shape[0]
    # pairs adjacent in projection order, measured by the same kernel as the window
    proj = projections(vectors)
    order = np.argsort(proj, kind="stable")
    pair = paired_distances(vectors[order[:-1]], vectors[order[1:]])
    bound = np.empty(n)
    bound[order] = np.concatenate([pair[:1], np.minimum(pair[:-1], pair[1:]), pair[-1:]])
    nearest = np.empty(n)
    for rows, cols, d in window_tiles(vectors, vectors, 0.0, bound, (proj, order)):
        # every row's window holds the row itself: its projection is in its tile's range
        d[np.arange(rows.size), np.searchsorted(cols, rows)] = np.inf
        nearest[rows] = d.min(axis=1)
    return nearest


def min_pairwise(vectors: np.ndarray) -> float:
    """Minimum Euclidean distance over all distinct row pairs (n >= 2): ``nearest_other``'s minimum.

    The codec reads delta0 off ``Codebook.nearest_other``; ``perfbench/spans.py`` wraps this by name.
    """
    return float(nearest_other(vectors).min())


def window_marked(queries: np.ndarray, vectors: np.ndarray, radius: float, order=None):
    """``window_nearest``'s (index, nearest) and each row's marked set, from one window pass.

    Returns (index, nearest, marked, start, count): row i's ascending indices
    j with d(queries[i], vectors[j]) < ``radius`` are
    ``marked[start[i] : start[i] + count[i]]``.  ``marked``, ``start`` and
    ``count`` are read-only int64 arrays, read by the encoder's fact pass
    and by the neighbor table (the codebook over itself), which keeps
    ``count`` as it is and rewrites the other two as its keys; every slice
    of ``marked`` is read-only too.  ``order`` is as in ``window_tiles``.
    """
    m = queries.shape[0]
    index = np.empty(m, dtype=np.int64)
    nearest = np.empty(m)
    start = np.empty(m, dtype=np.int64)
    count = np.empty(m, dtype=np.int64)
    parts, offset = [], 0
    for rows, cols, d in window_tiles(queries, vectors, radius, order=order):
        arg = d.argmin(axis=1)
        index[rows] = cols[arg]
        nearest[rows] = d[np.arange(rows.size), arg]
        inside = d < radius
        counts = np.count_nonzero(inside, axis=1)
        count[rows] = counts
        start[rows] = offset + np.cumsum(counts) - counts
        # row-major flat positions list each row's marked columns in ascending order
        parts.append(cols[np.flatnonzero(inside) % cols.size])
        offset += parts[-1].size
    marked = np.concatenate(parts, dtype=np.int64)
    for a in (marked, start, count):
        a.setflags(write=False)
    return index, nearest, marked, start, count


def distinct_rows(rows: np.ndarray):
    """The distinct rows of a finite (M, k) array and where each row went.

    Returns (distinct, inverse): ``distinct`` in ``np.unique(rows, axis=0)``
    order (lexicographic, first column first) and ``inverse`` of shape (M,)
    with ``rows == distinct[inverse]``.  Equal rows, -0.0 and 0.0 included,
    share one entry; every kernel gives them the same distances, and the
    entry is the group's first row in input order.

    One stable ``np.lexsort``.  When every entry is an exact integer in
    [0, ``NARROW_KEY_MAX``], as in 8-bit image blocks, it sorts ``uint16``
    copies of the columns, which numpy radix-sorts.  Those keys are equal
    exactly where the floats compare equal and order the same way, so the
    stable sort gives the same permutation, and ``distinct`` and ``inverse``
    the same bits, as float64 keys; any other input sorts those.
    """
    m = rows.shape[0]
    keys = rows.T  # one sort key per column
    # whole-array reductions: min/max along an axis cost more than the sort saved
    if rows.size and rows.min() >= 0 and rows.max() <= NARROW_KEY_MAX:
        narrow = keys.astype(np.uint16, order="C")
        if (narrow == keys).all():
            keys = narrow
    order = np.lexsort(keys[::-1])
    # a row is new where some column differs from the previous row's in sorted order
    new = np.zeros(m, dtype=bool)
    new[:1] = True
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    inverse = np.empty(m, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return rows[order[new]], inverse

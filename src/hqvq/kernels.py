"""Hot numeric kernels: Euclidean distances between queries and a codebook.

Every distance the package computes goes through one numpy kernel,
``_sq_dists``, so index decisions (argmin, threshold tests) are bit-consistent
across the encoder, the full-search baseline, training, the neighbor table and
the statistics code. There is one implementation.

Summation order: the kernel adds ``(v_d - q_d)**2`` one dimension at a time,
in index order, ``((s_0 + s_1) + s_2) + ...``, and the callers then take
``sqrt``. Every caller therefore sees the same bits for the same pair.

Tiling: the batched functions process ``WINDOW_TILE`` query rows at a time,
so they have no per-query Python loop and never hold an M x N matrix.  Each
pass allocates two tile-rows x N float64 buffers once, the distances and a
scratch, and every tile reuses them.  ``nearest_many`` alone measures every
pair: it is the plain reference the tests and the benchmark check against.

Projection windows: ``window_tiles`` is the one tile loop the codec's passes
use (training's assignments, ``window_nearest``, ``within_radius``,
``min_pairwise`` and the encoder's fact pass).  It measures only the
codevectors that can matter, after Ra and Kim's mean-ordered partial search
(IEEE TCAS-II, 1993).  Let p(x) = x . u on the mean axis
u = (1, ..., 1) / sqrt(k).  Since u is a unit vector,
|p(x) - p(c)| <= ||x - c||, so no codevector whose projection lies more
than R from p(x) is within R of x.  The queries and the codevectors are
sorted by projection once, and each tile of consecutive queries is
measured once:

- The look: the contiguous run of codevectors whose projections lie within
  the previous tile's reach of the tile's, with at least ``FIRST_LOOK`` on
  each side of its middle row.  A row's smallest distance in the look bounds
  its nearest distance, so its reach is at most R = max(radius, that bound).
  The row is covered when the codevectors just outside the look lie farther
  than R, plus the rounding margin below, on the mean axis; covered rows are
  yielded.
- The rows not covered are deferred with their bound.  After the last tile
  they run through the bounded pass: tiles in projection order, each
  measured once over the codevectors within R plus the margin of some row's
  projection.  A caller that already holds a bound (training holds each
  row's distance to its previous cell's new centroid) sends every row
  straight to the bounded pass.

The prune compares computed values, so it widens R by ``rounding_bound``'s
g = gamma_{k+3}: a computed distance d <= R means an exact one of at most
R / (1 - g), and each computed projection is within g * s of the exact one,
where s = sqrt(k) * max |x_d| bounds every norm.  Computed projections
within R + 2g * (R + s) therefore cover every such codevector; a window
keeps those within R + 4g * (R + s), the rest of the margin covering the
rounding of the bounds themselves, and keeps the boundary (<= at both
ends).  Every distance in a window is ``_sq_dists`` for that exact pair,
with the same bits as a full row, and the window lists codevectors in
ascending index order, so argmin ties still go to the smallest index.

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


def _sq_dists(vcols, qcols, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the sum over d of ``(vcols[d] - qcols[d])**2``.

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
    return out


def rounding_bound(k: int) -> float:
    """Relative rounding bound g of the kernels' distances and projections in dimension k.

    A distance the kernels compute (``_sq_dists``, then ``sqrt``) is within
    g * d of the exact distance d, and x's computed projection on the mean
    axis (the sum of its components over sqrt(k)) is within g * ||x|| of the
    exact one.  g is Higham's gamma_{k+3} = (k+3)u / (1 - (k+3)u) with
    u = 2**-53: a squared difference carries 3 roundings, the sum k - 1 more
    and ``sqrt`` one; the projection's sum carries k - 1 in any order and the
    division by sqrt(k) two.
    """
    ku = (k + 3) * 2.0**-53
    return ku / (1.0 - ku)


def window_tiles(queries: np.ndarray, vectors: np.ndarray, radius: float, bound=None):
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
    its middle row.  A row is covered when the
    codevectors just outside the look, ``v_sorted[lo - 1]`` and
    ``v_sorted[hi]``, lie farther from its projection than its reach,
    max(``radius``, its look minimum), plus the rounding margin.  Covered
    rows are yielded; the others are deferred with their look minimum, a
    computed distance and so at least their computed nearest one.  After
    the last tile, the deferred rows run through the bounded pass: tiles in
    projection order, each measured once over p +- (max(``radius``, bound)
    + margin).

    ``bound``, when given, is an (M,) array with ``bound[i]`` at least the
    computed nearest distance of ``queries[i]``, such as its distance to
    any one codevector; every row then goes straight to the bounded pass.
    """
    m, k = queries.shape
    n = vectors.shape[0]
    margin = 4.0 * rounding_bound(k)
    # sqrt(k) * max |x_d| >= ||x|| for every query and codevector
    scale = math.sqrt(k) * max(np.abs(queries).max(initial=0.0), np.abs(vectors).max())
    # coordinates on the mean axis (1, ..., 1) / sqrt(k)
    q_proj = queries.sum(axis=1) / math.sqrt(k)
    v_proj = vectors.sum(axis=1) / math.sqrt(k)
    q_order = np.argsort(q_proj, kind="stable")
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
        _sq_dists(vcols[:, cols], queries[rows].T[:, :, np.newaxis], d, tmp[:size].reshape(shape))
        return cols, np.sqrt(d, out=d)

    def half_width(reach):
        """|p(x) - p(c)| <= d(x, c): the reach, widened by the rounding of both projections and the distance."""
        return reach + margin * (reach + scale)

    def bounded(rows, bounds):
        """The bounded pass: each tile measured once over every row's reach."""
        for start in range(0, rows.size, WINDOW_TILE):
            tile = rows[start : start + WINDOW_TILE]
            p = q_proj[tile]
            half = half_width(np.maximum(radius, bounds[start : start + WINDOW_TILE]))
            low, high = float((p - half).min()), float((p + half).max())
            if math.isfinite(low) and math.isfinite(high):
                lo = np.searchsorted(v_sorted, low, side="left")
                hi = np.searchsorted(v_sorted, high, side="right")
            else:  # an overflowed bound or projection sum: keep every codevector
                lo, hi = 0, n
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
        half = half_width(reach)
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
    out = _sq_dists(vectors.T, x, np.empty(n), np.empty(n))
    return np.sqrt(out, out=out)


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
        d = _sq_dists(vcols, qcols, out[: stop - start], tmp[: stop - start])
        d = np.sqrt(d, out=d)
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
    out = _sq_dists(vectors.T, queries.T, np.empty(m), np.empty(m))
    return np.sqrt(out, out=out)


def min_pairwise(vectors: np.ndarray) -> float:
    """Minimum Euclidean distance over all distinct row pairs (n >= 2).

    One ``window_tiles(vectors, vectors, bound)`` pass.  ``bound`` is the
    smallest distance among the n - 1 pairs adjacent in projection order:
    any pair's distance bounds the minimum from above, and a pair close on
    the mean axis is a likely close pair.  Each row's window then holds every
    codevector within ``bound`` of it, so the closest pair is measured, with
    the same bits as a full row; each row's distance to itself is left out.
    When every codevector shares one projection (rows (a, -a), say) or the
    bound spans the codebook, every window holds every codevector and the
    pass measures all pairs.
    """
    # adjacent pairs in projection order, measured by the same kernel as the window
    ordered = vectors[np.argsort(vectors.sum(axis=1), kind="stable")]
    bound = float(paired_distances(ordered[:-1], ordered[1:]).min())
    best = math.inf
    for rows, cols, d in window_tiles(vectors, vectors, bound):
        # every row's window holds the row itself: its projection is in its tile's range
        d[np.arange(rows.size), np.searchsorted(cols, rows)] = np.inf
        best = min(best, float(d.min()))
    return best


def within_radius(vectors: np.ndarray, radius: float) -> list:
    """For each row i, the ascending indices j with d(vectors[i], vectors[j]) < radius.

    Each list is a read-only int64 slice of one member array per window tile.
    """
    lists = [None] * vectors.shape[0]
    for rows, cols, d in window_tiles(vectors, vectors, radius):
        r, c = np.nonzero(d < radius)
        # one flat array per tile; tile row i's members are members[edge[i] : edge[i + 1]]
        members = cols[c].astype(np.int64)
        members.setflags(write=False)  # and so every slice of it
        edge = np.searchsorted(r, np.arange(rows.size + 1)).tolist()
        for i, lo, hi in zip(rows.tolist(), edge, edge[1:]):
            lists[i] = members[lo:hi]
    return lists


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

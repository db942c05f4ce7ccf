"""Hot numeric kernels: Euclidean distances between queries and a codebook.

Every distance the package computes goes through one numpy kernel,
``_distances``, so index decisions (argmin, threshold tests) are bit-consistent
across the encoder, the full-search baseline, training, the neighbor table and
the statistics code. There is one implementation.

Summation order: the kernel adds ``(v_d - q_d)**2`` one dimension at a time,
in index order, ``((s_0 + s_1) + s_2) + ...``, and takes ``sqrt`` of the sum
in place. Every caller therefore sees the same bits for the same pair.  A
tile forms each dimension's differences with one K = 2 ``np.matmul`` rather
than a broadcast subtract; ``_distances`` holds the argument that they have
``np.subtract``'s bits, with or without FMA or subnormal flushing.

Tiling: the batched functions process a tile of query rows at a time, so
they have no per-query Python loop and never hold an M x N matrix.  Each
pass allocates two ``WINDOW_TILE`` x N float64 buffers once, the distances
and a scratch, and every tile reuses them.  A window pass sizes its tiles by
its rows per codevector (``tile_rows``: ``WINDOW_TILE`` rows times about
sqrt(M / N)), and shrinks a tile, never below ``WINDOW_TILE`` rows, until its
rows x window fit the buffer.  ``nearest_many`` alone measures every pair in
``WINDOW_TILE``-row tiles: it is the plain reference the tests and the
benchmark check against.

Projection windows: ``window_tiles`` is the one tile loop the codec's passes
use: training's assignments, ``window_nearest``, ``nearest_other`` (each
codevector's distance to its nearest other one, whose minimum is delta0) and
``window_marked``, whose flat marked sets serve both the neighbor table and
the encoder's fact pass.  It measures only the codevectors that can matter,
after Ra and Kim's mean-ordered partial search (IEEE TCAS-II, 1993).  Let
p(x) = x . u on the mean axis u = (1, ..., 1) / sqrt(k).  Since u is a unit
vector, |p(x) - p(c)| <= ||x - c||, so no codevector whose projection lies
more than R from p(x) is within R of x.  The queries and the codevectors
are sorted by projection once: every pass takes its codevectors as a
``SortedRows``, projected and sorted when it was built (a ``Codebook`` at
construction, training's centroids once per Lloyd iteration), and its
queries' ``projection_order`` from a caller that holds it, or computes it
once.  Each tile of consecutive queries is measured once:

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
  straight to the bounded pass, and may list only some rows in its order
  (training leaves out the rows its bound settles).

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

# Query rows per tile of a self-pass (M = N), and the least a tile of any pass
# takes: a pass holds WINDOW_TILE x N float64 distances plus one scratch buffer
# of the same size, and no tile's rows x window exceed them.  A tile's
# projections span a wider window as its rows grow; a smaller tile pays numpy's
# per-call cost more often (``tile_rows``).
WINDOW_TILE = 128

# The first look of ``window_tiles`` takes at least this many codevectors on
# each side of the tile's middle row in projection order.
FIRST_LOOK = 4

# ``distinct_rows`` sorts uint16 keys when every entry is an integer in [0, NARROW_KEY_MAX].
NARROW_KEY_MAX = np.iinfo(np.uint16).max


def _distances(vcols, qcols, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the square root of the sum over d of ``(vcols[d] - qcols[d])**2``.

    ``vcols[d]`` is dimension d of all N codevectors, shape (N,), and ``tmp``
    is scratch of ``out``'s shape.  ``qcols[d]`` is dimension d of the
    queries, in one of two forms:

    - Elementwise, ``out`` of shape (N,): a scalar for one query, or an (N,)
      row to pair query i with codevector i.  Each difference is one
      ``np.subtract``.
    - A tile, ``out`` of shape (T, N): a (T,) row, one entry per query.  A
      broadcast subtract of a (T, 1) column from an (N,) row runs numpy's
      inner loop once per output row, about four times the cost of a
      contiguous op, so each dimension's differences are one K = 2
      ``np.matmul`` instead: the (T, 2) block of rows [1, -q_d] times the
      (2, N) block of columns [c_d; 1], which is c_d - q_d.

    The tile form has ``np.subtract``'s bits.  Negation is exact, and both
    products multiply by 1.0, so both are exact; any evaluation order, with
    or without FMA, then rounds the exact difference once.  Only a zero may
    differ in sign (0 + -0.0 is 0.0), and the square erases that.  A BLAS
    that flushes subnormals to zero changes a difference only when both
    operands lie below 2**-968 in magnitude: the difference then lies below
    2**-967, and its square rounds to 0 either way.  So every caller sees
    the same bits for the same pair, whichever form computed it.

    The sum runs sequentially, ``((s_0 + s_1) + s_2) + ...``, and ``sqrt``
    is taken in place.
    """
    # dimension d's differences are diff(left[d], right[d])
    diff, left, right = np.subtract, vcols, qcols
    if out.ndim == 2:
        k, (t, n) = len(vcols), out.shape
        diff, left, right = np.matmul, np.empty((k, t, 2)), np.empty((k, 2, n))
        left[:, :, 0] = 1.0
        np.negative(qcols, out=left[:, :, 1])
        right[:, 0] = vcols
        right[:, 1] = 1.0
    diff(left[0], right[0], out=out)
    np.multiply(out, out, out=out)
    for d in range(1, len(left)):
        diff(left[d], right[d], out=tmp)
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
    roundings, the sum k - 1 more and ``sqrt`` one.  A tile's matmul
    difference counts as a subtract: its products are exact and its sum
    rounds once (``_distances``).  A coordinate is a sum
    of k' <= k signed components, k' - 1 roundings in any order, within
    gamma_{k'-1} of the sum of their magnitudes, at most sqrt(k') ||x||;
    dividing by sqrt(k') adds two (the root and the quotient).  So it is
    within gamma_{k'+1} ||x|| <= g ||x|| of the exact one.
    """
    ku = (k + 3) * 2.0**-53
    return ku / (1.0 - ku)


def certain_radii(nearest_other: np.ndarray, k: int) -> np.ndarray:
    """Each codevector's certain radius, (nearest_other / 2)(1 - 3g), with ``rounding_bound(k)``'s g.

    ``nearest_other`` holds each codevector's computed distance to its
    nearest other one, as ``nearest_other`` gives it.  A query whose
    computed distance to codevector i lies below r_i has i as its computed
    row's strict argmin, and lies within r_i of it in exact arithmetic too.
    Stage 1 of the encoder marks i on that test (``neighborhood.sub1_radii``),
    and training keeps a row in its cell on it (``codebook.train_codebook``).

    In exact arithmetic, with r_i = (1/2) min_{j != i} d(c_i, c_j):

    - Uniqueness: two marked i and j would need
      d(c_i, c_j) <= d(x, c_i) + d(x, c_j) < r_i + r_j <= d(c_i, c_j).
    - Optimality: for every j != i,
      d(x, c_j) >= d(c_i, c_j) - d(x, c_i) >= 2 r_i - d(x, c_i) > d(x, c_i),
      so a marked i is the unique nearest codevector.

    Rounding margin: a computed distance d' is within g * d of the exact d,
    and the computed nearest distance D'_i is at most (1 + g) times the
    exact 2 r_i.  Let d'(x, c_i) < D'_i/2 (1 - 3g), which with the product's
    own rounding is below r_i (1 + g)(1 - 3g + 3u) < (1 - g) r_i,
    u = 2**-53 <= g/4.  Then for every j != i, d'(x, c_j) >= (1 - g)
    d(x, c_j) >= 2(1 - g) r_i - (1 - g) d(x, c_i) >= 2(1 - g) r_i -
    d'(x, c_i) > d'(x, c_i): i is the computed row's strict argmin, and
    d(x, c_i) <= d'(x, c_i) / (1 - g) < r_i.  A codevector with a duplicate
    (D'_i = 0) has radius 0, which no distance lies below.
    """
    return nearest_other / 2.0 * (1.0 - 3.0 * rounding_bound(k))


def tile_rows(m: int, n: int) -> int:
    """Rows per tile of a window pass of ``m`` rows over ``n`` codevectors: WINDOW_TILE x max(1, round(sqrt(m / n))).

    Per row, numpy's fixed cost per tile falls as 1 / T, while the
    codevectors a tile's window adds for spanning its rows grow as T n / m:
    where rows and codevectors lie alike on the mean axis, T rows span
    about T n / m codevectors.  The best T therefore grows as
    sqrt(m / n).  A self-pass (m = n: the neighbor table,
    ``nearest_other``) takes WINDOW_TILE rows.
    """
    return WINDOW_TILE * max(1, round(math.sqrt(m / n)))


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
    (``SortedRows.norm_scale``, sqrt(k) max |c_d|).  Every strip on the mean
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


class SortedRows:
    """Rows projected on the mean axis and sorted once: the codevector side of every window pass.

    ``vectors`` holds the rows as given, neither copied nor frozen: training
    builds one over its centroids for each Lloyd iteration and then moves
    them in place.  ``columns`` is their transpose, contiguous, the
    per-dimension columns ``_distances`` reads.  ``projections`` holds each
    row's ``projections`` coordinate on the mean axis, ``order`` its stable
    argsort and ``axis`` the projections in that order, ascending.  A row's
    position on the axis is its place in ``order``, so ``order[p]`` is the
    row at position p.  ``norm_scale``, sqrt(k) max |c_d|, bounds every
    row's norm: the norm every window, strip and disc passes to
    ``half_width``.  A ``Codebook`` is one, with these arrays frozen.
    """

    def __init__(self, vectors: np.ndarray):
        self.vectors = vectors
        self.columns = np.ascontiguousarray(vectors.T)
        self.projections = projections(vectors)
        self.order = np.argsort(self.projections, kind="stable")
        self.axis = self.projections[self.order]
        self.norm_scale = math.sqrt(vectors.shape[1]) * float(np.abs(vectors).max())

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def k(self) -> int:
        return self.vectors.shape[1]


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


def window_tiles(queries: np.ndarray, codevectors: SortedRows, radius: float, bound=None, order=None):
    """Yield (rows, cols, d): each tile's distances to the codevectors that can matter.

    ``rows`` indexes ``queries`` (in projection order), ``cols`` holds
    ascending indices into ``codevectors.vectors``, and ``d[i, j]`` is the
    distance from ``queries[rows[i]]`` to ``codevectors.vectors[cols[j]]``,
    the same bits as ``dist_to_all`` gives.  The pass reads the
    codevectors' columns, axis, order and norm bound off the ``SortedRows``
    it is given and derives none.  ``cols`` contains every codevector within
    max(``radius``, the row's nearest distance) of each of the tile's rows,
    so argmin ties still go to the smallest index.  Every row is yielded
    exactly once.  ``d`` is a view of one of the two buffers the call
    allocates, each WINDOW_TILE x N floats (fewer rows when M is smaller):
    it is valid until the next step, and no tile's rows x cols exceed it.

    Tile size: a pass of M rows over N codevectors takes ``tile_rows(M,
    N)`` rows per tile, WINDOW_TILE times the nearest integer to
    sqrt(M / N), at least 1.  A tile whose window would overflow the buffer
    shrinks, never below WINDOW_TILE rows, whose window, at most N, always
    fits.  A look shrinks to the rows its width would fit until its window
    fits; a bounded tile keeps the most rows whose window fits.

    One look per tile: the codevectors whose projections lie within the
    previous tile's widest covered reach of the tile's (its widest look
    minimum if it covered no row), and at least FIRST_LOOK on each side of
    its middle row.  A row is covered when the codevectors just outside the
    look, ``axis[lo - 1]`` and ``axis[hi]``, lie farther from its
    projection than ``half_width`` of its reach, max(``radius``, its look
    minimum).  Covered rows are yielded; the others are deferred with their
    look minimum, at least their computed nearest distance.  After the last
    tile, they run through the bounded pass: each row's window ends, the
    axis run within ``half_width``(max(``radius``, bound)) of its
    projection, are found once for the pass, and each tile in projection
    order is measured once over the union of its rows' windows.  A look
    minimum or a bound is at least the row's computed distance to some
    codevector, as ``half_width`` needs, and its norm is the codevectors'
    ``norm_scale``, so no row widens another's margin.

    ``bound``, when given, is an (M,) array with ``bound[i]`` at least the
    computed nearest distance of ``queries[i]``, such as its distance to
    any one codevector; every row then goes straight to the bounded pass.
    ``order``, when given, is (``projections(queries)``, an order of some
    of the rows by projection): ``projection_order(queries)``, which a
    caller that needs it too computes once, or a subsequence of its order.
    The pass then yields only the rows that order lists, and M is their
    number.
    Both arrays lie within ``as_rows``' 2**500 bound, so every projection
    and distance is finite and a window needs no overflow fallback; an inf
    bound's window is the whole codebook.
    """
    k = queries.shape[1]
    n, norm = codevectors.n, codevectors.norm_scale
    v_order, v_sorted, vcols = codevectors.order, codevectors.axis, codevectors.columns
    q_proj, q_order = projection_order(queries) if order is None else order
    m = q_order.size
    span = tile_rows(m, n)
    # every tile's distances and their scratch: no tile's rows x window exceed them
    full = min(WINDOW_TILE, m) * n
    out, tmp = np.empty(full), np.empty(full)

    def measure(rows, lo, hi):
        """(cols, d): the distances of ``rows`` to the codevectors at ``v_sorted[lo:hi]``, in ``out``."""
        cols = np.sort(v_order[lo:hi])
        shape = (rows.size, cols.size)
        size = math.prod(shape)
        d = out[:size].reshape(shape)
        return cols, _distances(vcols[:, cols], queries[rows].T, d, tmp[:size].reshape(shape))

    def bounded(rows, bounds):
        """The bounded pass: each tile measured once over every row's reach."""
        p = q_proj[rows]
        half = half_width(np.maximum(radius, bounds), k, norm)
        # each row's window ends; a tile's window is their union
        row_lo = np.searchsorted(v_sorted, p - half, side="left")
        row_hi = np.searchsorted(v_sorted, p + half, side="right")
        start = 0
        while start < rows.size:
            lo, hi = row_lo[start : start + span], row_hi[start : start + span]
            t, a, b = lo.size, lo.min(), hi.max()
            if t * (b - a) > full:
                # the union widens with the rows: keep the most whose window fits
                lo, hi = np.minimum.accumulate(lo), np.maximum.accumulate(hi)
                t = max(WINDOW_TILE, np.count_nonzero(np.arange(1, t + 1) * (hi - lo) <= full))
                a, b = lo[t - 1], hi[t - 1]
            tile = rows[start : start + t]
            cols, d = measure(tile, a, b)
            yield tile, cols, d
            start += t

    def look_ends(p, guess):
        """(lo, hi): the look of a tile whose rows project to ``p``, ascending."""
        mid = np.searchsorted(v_sorted, p[p.size // 2])
        lo = min(np.searchsorted(v_sorted, p[0] - guess, side="left"), max(mid - FIRST_LOOK, 0))
        hi = max(np.searchsorted(v_sorted, p[-1] + guess, side="right"), min(mid + FIRST_LOOK, n))
        return lo, hi

    def look(rows, guess):
        """(covered rows, cols, their d, next guess, rows taken): the look of a tile at the front of ``rows``.

        The tile's rows not covered are deferred.
        """
        p = q_proj[rows]
        lo, hi = look_ends(p, guess)
        while rows.size * (hi - lo) > full:
            # fewer rows, at least WINDOW_TILE, that the last look's width would fit
            rows = rows[: max(WINDOW_TILE, min(rows.size - 1, full // (hi - lo)))]
            p = p[: rows.size]
            lo, hi = look_ends(p, guess)
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
            return rows, cols, d, float(reach.max()), rows.size
        deferred.append((rows[~ok], nearest[~ok]))
        if not ok.any():
            return rows[:0], cols, None, float(reach.max()), rows.size
        # the covered rows, compacted into the scratch buffer the next tile overwrites
        kept = tmp[: np.count_nonzero(ok) * cols.size].reshape(-1, cols.size)
        return rows[ok], cols, np.compress(ok, d, axis=0, out=kept), float(reach[ok].max()), rows.size

    if bound is not None:
        yield from bounded(q_order, np.asarray(bound, dtype=np.float64)[q_order])
        return
    deferred = []  # (rows, bounds) of each tile's rows that its look did not cover
    guess = radius  # the look's reach
    start = 0
    while start < m:
        rows, cols, d, guess, taken = look(q_order[start : start + span], guess)
        if rows.size:
            yield rows, cols, d
        start += taken
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
        d = _distances(vcols, queries[start:stop].T, out[: stop - start], tmp[: stop - start])
        arg = d.argmin(axis=1)
        idx[start:stop] = arg
        dist[start:stop] = d[np.arange(stop - start), arg]
    return idx, dist


def window_nearest(queries: np.ndarray, codevectors: SortedRows, bound=None, order=None):
    """``nearest_many``'s result over ``codevectors.vectors`` from ``window_tiles``: each row's window is its nearest distance.

    ``bound`` and ``order`` are as in ``window_tiles``: ``bound`` at least
    each row's computed nearest distance, ``order`` the queries'
    ``projection_order`` or a subsequence of its order.  Entries of the
    rows an order leaves out are left unset.
    """
    m = queries.shape[0]
    idx = np.empty(m, dtype=np.int64)
    dist = np.empty(m)
    for rows, cols, d in window_tiles(queries, codevectors, 0.0, bound, order):
        arg = d.argmin(axis=1)
        idx[rows] = cols[arg]
        dist[rows] = d[np.arange(rows.size), arg]
    return idx, dist


def paired_distances(queries: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Distance from ``queries[i]`` to ``vectors[i]`` for each i, the bits a window gives that pair."""
    m = queries.shape[0]
    return _distances(vectors.T, queries.T, np.empty(m), np.empty(m))


def nearest_other(codevectors: SortedRows) -> np.ndarray:
    """Each row's distance to its nearest other row of ``codevectors``, as an (n,) array (n >= 2).

    One ``window_tiles`` pass of the rows over themselves, their own
    projections and ``order`` serving as the queries' order.  Row i's
    ``bound`` is the smaller of its two pair distances with the rows next to
    it on the axis (one at either end of the order): any other row's
    distance bounds the nearest one from above, and a row close on the mean
    axis is a likely close row.  Each row's window then holds every row
    within its bound, its nearest other row included, with the same bits as
    a full row; the row's distance to itself is set to inf.  Pair distances
    are symmetric to the bit, since (a - b)**2 == (b - a)**2, so the
    minimum of the result is the closest pair's distance.  When every row
    shares one projection (rows (a, -a), say) or a bound spans the
    codebook, every window holds every row.
    """
    vectors, order = codevectors.vectors, codevectors.order
    # pairs adjacent in projection order, measured by the same kernel as the window
    pair = paired_distances(vectors[order[:-1]], vectors[order[1:]])
    bound = np.empty(codevectors.n)
    bound[order] = np.concatenate([pair[:1], np.minimum(pair[:-1], pair[1:]), pair[-1:]])
    nearest = np.empty(codevectors.n)
    for rows, cols, d in window_tiles(vectors, codevectors, 0.0, bound, (codevectors.projections, order)):
        # every row's window holds the row itself: its projection is in its tile's range
        d[np.arange(rows.size), np.searchsorted(cols, rows)] = np.inf
        nearest[rows] = d.min(axis=1)
    return nearest


def min_pairwise(vectors: np.ndarray) -> float:
    """Minimum Euclidean distance over all distinct row pairs (n >= 2): ``nearest_other``'s minimum.

    Takes a plain array and sorts it itself.  The codec reads delta0 off
    ``Codebook.nearest_other``; ``perfbench/spans.py`` wraps this by name.
    """
    return float(nearest_other(SortedRows(vectors)).min())


def window_marked(queries: np.ndarray, codevectors: SortedRows, radius: float, order=None):
    """``window_nearest``'s (index, nearest) and each row's marked set, from one window pass.

    Returns (index, nearest, marked, start, count): row i's ascending indices
    j with d(queries[i], codevectors.vectors[j]) < ``radius`` are
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
    for rows, cols, d in window_tiles(queries, codevectors, radius, order=order):
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

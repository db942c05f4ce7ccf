"""Hot numeric kernels: Euclidean distances between queries and a codebook.

Every distance the package computes goes through one numpy kernel,
``_sq_dists``, so index decisions (argmin, threshold tests) are bit-consistent
across the encoder, the full-search baseline, training, the neighbor table and
the statistics code. There is one implementation.

Summation order: the kernel adds ``(v_d - q_d)**2`` one dimension at a time,
in index order, ``((s_0 + s_1) + s_2) + ...``, and the callers then take
``sqrt``. Every caller therefore sees the same bits for the same pair.

Tiling: the batched functions process ``TILE`` (``WINDOW_TILE`` in
``window_tiles``) query rows at a time, so they have no per-query Python loop
and never hold more than two tile-rows x N float64 buffers, never an M x N
matrix.  ``nearest_many`` and ``min_pairwise`` measure every pair;
``nearest_many`` is the plain reference the tests and the benchmark check
against.

Projection windows: ``window_tiles`` is the one tile loop the codec's passes
use (training's assignments, ``window_nearest``, ``within_radius`` and the
encoder's fact pass).  It measures only the codevectors that can matter,
after Ra and Kim's mean-ordered partial search (IEEE TCAS-II, 1993).  Let
p(x) = x . u on the mean axis u = (1, ..., 1) / sqrt(k).  Since u is a unit
vector, |p(x) - p(c)| <= ||x - c||, so no codevector whose projection lies
more than R from p(x) is within R of x.  The queries and the codevectors are
sorted by projection once; each tile of consecutive queries takes the
codevectors near its projections first, bounds each row's nearest distance
by the smallest of those, and then widens to the contiguous run of
codevectors whose projections are within R = max(radius, bound) of some
row's.  The prune compares computed values, so it widens R by
``rounding_bound``'s g = gamma_{k+3}: a computed distance d <= R means an
exact one of at most R / (1 - g), and each computed projection is within
g * s of the exact one, where s = sqrt(k) * max |x_d| bounds every norm.
Computed projections within R + 2g * (R + s) therefore cover every such
codevector; the window keeps those within R + 4g * (R + s), the rest of the
margin covering the rounding of the bounds themselves, and keeps the
boundary (<= at both ends).  Every distance in a window is
``_sq_dists`` for that exact pair, with the same bits as a full row, and the
window lists codevectors in ascending index order, so argmin ties still go
to the smallest index.

Distinct rows: a block's distance row depends only on its values, so callers
that pass image blocks run the tiles over ``distinct_rows`` and gather the
results back to every block through its ``inverse``.  Smooth images repeat
most blocks: 5 366 of the 32 768 2 x 1 blocks of the benchmark's 256 x 256
synthetic photo (seed 1) are distinct.
"""

from __future__ import annotations

import math

import numpy as np

# named in run reports next to the package versions
ACTIVE_IMPL = "numpy"

# Query rows per tile of the full-row passes: a tile holds TILE x N float64
# sums plus one scratch buffer of the same size.
TILE = 64

# Query rows per tile of ``window_tiles``: at most WINDOW_TILE x N float64
# distances plus one scratch buffer of the same size.  The projections of a
# larger tile span a wider window; a smaller one pays numpy's per-call cost
# more often.
WINDOW_TILE = 128

# The first look of ``window_tiles`` takes at least this many codevectors on
# each side of the tile's middle row in projection order.
FIRST_LOOK = 4


def _sq_dists(vcols, qcols, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the sum over d of ``(vcols[d] - qcols[d])**2``.

    ``vcols[d]`` is dimension d of all N codevectors, shape (N,). ``qcols[d]``
    is dimension d of the queries: a scalar for one query (``out`` of shape
    (N,)) or a (T, 1) column for a tile (``out`` of shape (T, N)). The sum runs
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


def _tiles(queries: np.ndarray, n: int):
    """Yield (start, stop, qcols, out, tmp) over ``queries`` in TILE-row steps."""
    m = queries.shape[0]
    rows = min(TILE, m)
    out = np.empty((rows, n))
    tmp = np.empty((rows, n))
    for start in range(0, m, TILE):
        stop = min(start + TILE, m)
        qcols = queries[start:stop].T[:, :, np.newaxis]
        yield start, stop, qcols, out[: stop - start], tmp[: stop - start]


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


def window_tiles(queries: np.ndarray, vectors: np.ndarray, radius: float):
    """Yield (rows, cols, d): each tile's distances to the codevectors that can matter.

    ``rows`` indexes ``queries`` (WINDOW_TILE of them, in projection order),
    ``cols`` holds ascending indices into ``vectors``, and ``d[i, j]`` is the
    distance from ``queries[rows[i]]`` to ``vectors[cols[j]]``, the same bits
    as ``dist_to_all`` gives.  ``cols`` contains every codevector within
    max(``radius``, the row's nearest distance) of each of the tile's rows,
    so argmin ties still go to the smallest index.  ``d`` is a buffer reused
    by the next step: read it before advancing.
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
    out = np.empty(min(WINDOW_TILE, m) * n)
    tmp = np.empty_like(out)

    def measure(qcols, cols, at):
        """The tile's distances to ``vectors[cols]``: a contiguous view of ``out`` from ``at``."""
        shape = (qcols.shape[1], cols.size)
        d = out[at : at + math.prod(shape)].reshape(shape)
        d = _sq_dists(vcols[:, cols], qcols, d, tmp[: d.size].reshape(shape))
        return np.sqrt(d, out=d)

    guess = radius  # the first look's reach: the previous tile's widest
    for start in range(0, m, WINDOW_TILE):
        rows = q_order[start : start + WINDOW_TILE]
        t = rows.size
        qcols = queries[rows].T[:, :, np.newaxis]
        p = q_proj[rows]
        # first look: the codevectors within ``guess`` of the tile's projections,
        # and at least FIRST_LOOK on each side of its middle row's
        mid = np.searchsorted(v_sorted, p[t // 2])
        lo = min(np.searchsorted(v_sorted, p[0] - guess, side="left"), max(mid - FIRST_LOOK, 0))
        hi = max(np.searchsorted(v_sorted, p[-1] + guess, side="right"), min(mid + FIRST_LOOK, n))
        cols = np.sort(v_order[lo:hi])
        d = measure(qcols, cols, 0)
        nearest = d.min(axis=1)
        reach = np.maximum(radius, nearest)
        # |p(x) - p(c)| <= d(x, c): keep every c with |p(x) - p(c)| <= reach,
        # widened by the rounding of both projections and of the distance
        half = reach + margin * (reach + scale)
        low, high = float((p - half).min()), float((p + half).max())
        if math.isfinite(low) and math.isfinite(high):
            lo_all = min(np.searchsorted(v_sorted, low, side="left"), lo)
            hi_all = max(np.searchsorted(v_sorted, high, side="right"), hi)
        else:  # an overflowed distance or projection sum: keep every codevector
            lo_all, hi_all = 0, n
        if lo_all < lo or hi_all > hi:
            # widen to every row's bound: measure the rest, then merge in index order
            rest = np.sort(np.concatenate((v_order[lo_all:lo], v_order[hi:hi_all])))
            e = measure(qcols, rest, d.size)
            reach = np.maximum(radius, np.minimum(nearest, e.min(axis=1)))
            both = np.sort(np.concatenate((cols, rest)))
            merged = tmp[: t * both.size].reshape(t, both.size)
            merged[:, np.searchsorted(both, cols)] = d
            merged[:, np.searchsorted(both, rest)] = e
            cols, d = both, merged
        guess = float(reach.max())
        yield rows, cols, d


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
    for start, stop, qcols, out, tmp in _tiles(queries, vectors.shape[0]):
        d = np.sqrt(_sq_dists(vcols, qcols, out, tmp), out=out)
        arg = d.argmin(axis=1)
        idx[start:stop] = arg
        dist[start:stop] = d[np.arange(stop - start), arg]
    return idx, dist


def window_nearest(queries: np.ndarray, vectors: np.ndarray):
    """``nearest_many``'s result from ``window_tiles``: each row's window is its nearest distance."""
    m = queries.shape[0]
    idx = np.empty(m, dtype=np.int64)
    dist = np.empty(m)
    for rows, cols, d in window_tiles(queries, vectors, 0.0):
        arg = d.argmin(axis=1)
        idx[rows] = cols[arg]
        dist[rows] = d[np.arange(rows.size), arg]
    return idx, dist


def min_pairwise(vectors: np.ndarray) -> float:
    """Minimum Euclidean distance over all distinct row pairs (n >= 2)."""
    n = vectors.shape[0]
    vcols = np.ascontiguousarray(vectors.T)
    best = np.inf
    for start, stop, qcols, out, tmp in _tiles(vectors[:-1], n - 1):
        # rows i = start..stop-1 against columns j = start+1..n-1; keep j > i
        width = n - 1 - start
        sq = _sq_dists(vcols[:, start + 1 :], qcols, out[:, :width], tmp[:, :width])
        sq[np.tril_indices(stop - start, -1, width)] = np.inf
        best = min(best, sq.min())
    return float(np.sqrt(best))


def within_radius(vectors: np.ndarray, radius: float) -> list:
    """For each row i, the ascending indices j with d(vectors[i], vectors[j]) < radius."""
    lists = [None] * vectors.shape[0]
    for rows, cols, d in window_tiles(vectors, vectors, radius):
        r, c = np.nonzero(d < radius)
        members = np.split(cols[c].astype(np.int64), np.searchsorted(r, np.arange(1, rows.size)))
        for i, row in zip(rows.tolist(), members):
            lists[i] = row
    return lists


def distinct_rows(rows: np.ndarray):
    """The distinct rows of a finite (M, k) array and where each row went.

    Returns (distinct, inverse): ``distinct`` in ``np.unique(rows, axis=0)``
    order (lexicographic, first column first) and ``inverse`` of shape (M,)
    with ``rows == distinct[inverse]``.  Equal rows, -0.0 and 0.0 included,
    share one entry; every kernel gives them the same distances.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.empty(rows.shape[0], dtype=bool)
    new[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    inverse = np.empty(rows.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse

"""Hot numeric kernels: Euclidean distances between queries and a codebook.

Every distance the package computes goes through one numpy kernel,
``_sq_dists``, so index decisions (argmin, threshold tests) are bit-consistent
across the encoder, the full-search baseline, training, the neighbor table and
the statistics code. There is one implementation.

Summation order: the kernel adds ``(v_d - q_d)**2`` one dimension at a time,
in index order, ``((s_0 + s_1) + s_2) + ...``, and the callers then take
``sqrt``. Every caller therefore sees the same bits for the same pair.

Tiling: the batched functions (``nearest_many``, ``min_pairwise``,
``within_radius``) and the batch encoder process ``TILE`` query rows at a time
against all N codevectors, so they have no per-query Python loop and never
hold more than two ``TILE`` x N float64 buffers, never an M x N matrix.
``distance_tiles`` is the one tile loop that hands out distances.

Distinct rows: a block's distance row depends only on its values, so callers
that pass image blocks run the tiles over ``distinct_rows`` and gather the
results back to every block through its ``inverse``.  Smooth images repeat
most blocks: 5 366 of the 32 768 2 x 1 blocks of the benchmark's 256 x 256
synthetic photo (seed 1) are distinct.
"""

from __future__ import annotations

import numpy as np

# named in run reports next to the package versions
ACTIVE_IMPL = "numpy"

# Query rows per tile: a tile holds TILE x N float64 sums plus one scratch
# buffer of the same size.
TILE = 64


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


def distance_tiles(queries: np.ndarray, vectors: np.ndarray):
    """Yield (start, stop, d) over ``queries`` in TILE-row steps.

    ``d[i, j]`` is the distance from ``queries[start + i]`` to ``vectors[j]``.
    ``d`` is a buffer reused by the next step: read it before advancing.
    """
    vcols = np.ascontiguousarray(vectors.T)
    for start, stop, qcols, out, tmp in _tiles(queries, vectors.shape[0]):
        yield start, stop, np.sqrt(_sq_dists(vcols, qcols, out, tmp), out=out)


def dist_to_all(x: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Euclidean distance from ``x`` (k,) to every row of ``vectors`` (n, k)."""
    n = vectors.shape[0]
    out = _sq_dists(vectors.T, x, np.empty(n), np.empty(n))
    return np.sqrt(out, out=out)


def nearest_many(queries: np.ndarray, vectors: np.ndarray):
    """Nearest row of ``vectors`` for each row of ``queries``.

    Returns (indices, distances); ties resolve to the smallest index.
    """
    m = queries.shape[0]
    idx = np.empty(m, dtype=np.int64)
    dist = np.empty(m)
    for start, stop, d in distance_tiles(queries, vectors):
        arg = d.argmin(axis=1)
        idx[start:stop] = arg
        dist[start:stop] = d[np.arange(stop - start), arg]
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
    lists = []
    for start, stop, d in distance_tiles(vectors, vectors):
        rows, cols = np.nonzero(d < radius)
        lists.extend(np.split(cols.astype(np.int64), np.searchsorted(rows, np.arange(1, stop - start))))
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

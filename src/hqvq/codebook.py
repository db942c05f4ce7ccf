"""Codebook handling: metric, full-search baseline, and a plain LBG trainer.

The full search is intentionally the transparent O(N) loop; it doubles as the
correctness oracle for the hybrid encoder.
"""

from __future__ import annotations

import numpy as np

from . import kernels


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-D float64 vector with k >= 1 components."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite components")
    return v


def as_rows(x, k: int | None = None) -> np.ndarray:
    """Coerce to a finite, non-empty (M, k) float64 array; ``k=None`` takes any width."""
    rows = np.asarray(x, dtype=np.float64)
    if rows.ndim != 2 or 0 in rows.shape:
        raise ValueError(f"expected a non-empty (M, k) array, got shape {rows.shape}")
    if k is not None and rows.shape[1] != k:
        raise ValueError(f"dimension mismatch: vector has {rows.shape[1]}, codebook has {k}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("array has non-finite components")
    return rows


class Codebook:
    """Ordered set of N equal-dimension codevectors with distinct entries.

    The minimum pairwise distance ``delta0`` is computed once at construction
    and cached; duplicate codevectors (delta0 == 0) are rejected because the
    single-solution guarantee of the fast encoding path depends on it.
    """

    def __init__(self, vectors):
        arr = np.array(as_rows(vectors))  # own copy: rows get frozen below
        if arr.shape[0] < 2:
            raise ValueError(f"codebook needs at least 2 codevectors, got {arr.shape[0]}")
        self.vectors = arr
        self.vectors.setflags(write=False)
        self.delta0 = float(kernels.min_pairwise(arr))
        if self.delta0 <= 0.0:
            raise ValueError("codebook contains duplicate codevectors (delta0 == 0)")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def k(self) -> int:
        return self.vectors.shape[1]

    def check_dim(self, x: np.ndarray) -> None:
        if x.shape[0] != self.k:
            raise ValueError(f"dimension mismatch: vector has {x.shape[0]}, codebook has {self.k}")


def distance(a, b) -> float:
    """Euclidean distance between two equal-dimension vectors."""
    va, vb = as_vector(a), as_vector(b)
    if va.shape != vb.shape:
        raise ValueError(f"dimension mismatch: {va.shape[0]} vs {vb.shape[0]}")
    return float(kernels.dist_to_all(va, vb[np.newaxis, :])[0])


def distances_to_codebook(x, codebook: Codebook) -> np.ndarray:
    """Distances from ``x`` to every codevector, in index order."""
    v = as_vector(x)
    codebook.check_dim(v)
    return kernels.dist_to_all(v, codebook.vectors)


def full_search(x, codebook: Codebook) -> tuple[int, float]:
    """Exhaustive nearest-codevector search: exactly N distance evaluations.

    Ties resolve to the smallest index, matching the hybrid encoder's rule.
    """
    d = distances_to_codebook(x, codebook)
    i = int(np.argmin(d))
    return i, float(d[i])


def train_codebook(samples, n_codevectors: int, seed: int, max_iter: int = 60) -> Codebook:
    """Train an N-entry codebook with seeded Lloyd (k-means) iterations.

    Initialization draws N distinct sample rows; empty cells are reseeded
    from the most distorted points; duplicate centroids get a tiny
    data-scaled jitter so the resulting codebook always has delta0 > 0.
    Each assignment is one ``kernels.window_nearest`` pass over the distinct
    rows, gathered back to every sample; each centroid is the mean of all its
    cell's samples.  At least one iteration runs (``max_iter >= 1``).
    Deterministic for a fixed seed.
    """
    data = as_rows(samples)
    m = data.shape[0]
    if n_codevectors < 2:
        raise ValueError("need at least 2 codevectors")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if m < n_codevectors:
        raise ValueError(f"need at least {n_codevectors} samples, got {m}")
    uniq, inverse = kernels.distinct_rows(data)
    if uniq.shape[0] < n_codevectors:
        raise ValueError(
            f"only {uniq.shape[0]} distinct samples for {n_codevectors} codevectors"
        )

    rng = np.random.default_rng(seed)
    centroids = uniq[rng.choice(uniq.shape[0], size=n_codevectors, replace=False)].copy()

    prev_assign = None
    for _ in range(max_iter):
        uniq_assign, uniq_dist = kernels.window_nearest(uniq, centroids)
        assign, dist = uniq_assign[inverse], uniq_dist[inverse]
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        # cell i's members, in sample order, are grouped[bounds[i]:bounds[i + 1]]
        grouped = data[np.argsort(assign, kind="stable")]
        bounds = np.concatenate(([0], np.cumsum(np.bincount(assign, minlength=n_codevectors))))
        for i in range(n_codevectors):
            if bounds[i + 1] > bounds[i]:
                centroids[i] = grouped[bounds[i] : bounds[i + 1]].mean(axis=0)
            else:
                # dead cell: reseed at the currently worst-represented point
                worst = int(np.argmax(dist))
                centroids[i] = data[worst]
                dist[worst] = 0.0

    centroids = _separate_duplicates(centroids, rng)
    return Codebook(centroids)


def _separate_duplicates(centroids: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    scale = max(float(np.abs(centroids).max()), 1.0)
    for _ in range(100):
        if kernels.min_pairwise(centroids) > 0.0:
            return centroids
        _, first = np.unique(centroids, axis=0, return_index=True)
        dup = np.setdiff1d(np.arange(centroids.shape[0]), first)
        centroids[dup] += rng.normal(0.0, 1e-9 * scale, size=centroids[dup].shape)
    raise ValueError("could not separate duplicate centroids")


def save_codebook(codebook: Codebook, path) -> None:
    """Write the line-oriented text format: header ``VQCB 1 <k> <N>`` then N rows.

    Components use the shortest decimal form that parses back bit-exactly.
    """
    lines = [f"VQCB 1 {codebook.k} {codebook.n}"]
    for row in codebook.vectors:
        lines.append(" ".join(repr(float(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_codebook(path) -> Codebook:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty codebook file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "VQCB" or head[1] != "1":
        raise ValueError(f"{path}: bad header {lines[0]!r}")
    k, n = int(head[2]), int(head[3])
    if len(lines) - 1 != n:
        raise ValueError(f"{path}: expected {n} codevector lines, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != k:
            raise ValueError(f"{path}: expected {k} components per line, got {len(parts)}")
        rows.append([float(p) for p in parts])
    return Codebook(np.array(rows, dtype=np.float64))

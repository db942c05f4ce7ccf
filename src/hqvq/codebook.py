"""Codebook handling: metric, full-search baseline, and a plain LBG trainer.

The full search is intentionally the transparent O(N) loop; it doubles as the
correctness oracle for the hybrid encoder.  The trainer runs Lloyd/LBG
iterations (Linde, Buzo and Gray, 1980) in whole-array passes: a window pass
assigns the distinct rows, bounded from the second iteration on by each row's
distance to its cell's new centroid (the upper bound of Hamerly, SDM 2010),
and ``np.bincount`` sums every cell at once.
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


class DuplicateCodevectors(ValueError):
    """A codebook has two codevectors at distance 0 (delta0 == 0)."""


class Codebook:
    """Ordered set of N equal-dimension codevectors with distinct entries.

    The minimum pairwise distance ``delta0`` is computed once at construction
    and cached; duplicate codevectors (delta0 == 0) are rejected with
    ``DuplicateCodevectors`` because the single-solution guarantee of the
    fast encoding path depends on it.
    """

    def __init__(self, vectors):
        arr = np.array(as_rows(vectors))  # own copy: rows get frozen below
        if arr.shape[0] < 2:
            raise ValueError(f"codebook needs at least 2 codevectors, got {arr.shape[0]}")
        self.vectors = arr
        self.vectors.setflags(write=False)
        self.delta0 = float(kernels.min_pairwise(arr))
        if self.delta0 <= 0.0:
            raise DuplicateCodevectors("codebook contains duplicate codevectors (delta0 == 0)")

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

    Initialization draws N distinct sample rows; empty cells are reseeded,
    in ascending index order, from the most distorted points; duplicate
    centroids get a tiny data-scaled jitter so the resulting codebook always
    has delta0 > 0.  Each assignment is one ``kernels.window_nearest`` pass
    over the distinct rows, gathered back to every sample.  From the second
    iteration on, the pass takes each distinct row's distance to its
    previous cell's updated centroid as its bound (a reseed moves only dead
    cells, which hold no row): ``kernels.paired_distances`` gives it the
    bits the window gives that pair, so it is at least the row's computed
    nearest distance, and each tile is measured once around it.  Each
    centroid is its cell's sum over its count: one ``np.bincount`` per
    dimension adds a cell's samples in sample order, starting from +0.0, so
    a cell whose members are all -0.0 in a component gets +0.0 there.  At
    least one iteration runs (``max_iter >= 1``).  Deterministic for a fixed
    seed.
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

    columns = np.ascontiguousarray(data.T)
    prev_assign = None
    bound = None
    for _ in range(max_iter):
        uniq_assign, uniq_dist = kernels.window_nearest(uniq, centroids, bound)
        assign = uniq_assign[inverse]
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        counts = np.bincount(assign, minlength=n_codevectors)
        live = counts > 0
        sums = np.stack([np.bincount(assign, weights=col, minlength=n_codevectors) for col in columns], axis=1)
        centroids[live] = sums[live] / counts[live, np.newaxis]
        dead = np.flatnonzero(~live)
        if dead.size:
            dist = uniq_dist[inverse]
            for i in dead:
                # dead cell: reseed at the currently worst-represented point
                worst = int(np.argmax(dist))
                centroids[i] = data[worst]
                dist[worst] = 0.0
        # a row's distance to its cell's new centroid bounds its next nearest distance
        bound = kernels.paired_distances(uniq, centroids[uniq_assign])

    return _separate_duplicates(centroids, rng)


def _separate_duplicates(centroids: np.ndarray, rng: np.random.Generator) -> Codebook:
    """The codebook of ``centroids``, jittering duplicate rows until delta0 > 0."""
    scale = max(float(np.abs(centroids).max()), 1.0)
    for _ in range(100):
        try:
            return Codebook(centroids)
        except DuplicateCodevectors:
            pass
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
    """Read ``save_codebook``'s format; a malformed file is a ``ValueError`` naming it.

    The file must be ASCII without '_': ``int`` and ``float`` would read
    ``1_0`` as 10 and non-ASCII digits as numbers.
    """
    try:
        with open(path, encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError:
        raise ValueError(f"{path}: codebook file is not ASCII text") from None
    if not lines:
        raise ValueError(f"{path}: empty codebook file")
    if any("_" in ln for ln in lines):
        raise ValueError(f"{path}: '_' in a codebook file")
    head = lines[0].split()
    if len(head) != 4 or head[:2] != ["VQCB", "1"] or not (head[2].isdigit() and head[3].isdigit()):
        raise ValueError(f"{path}: bad header {lines[0]!r}")
    k, n = int(head[2]), int(head[3])
    if len(lines) - 1 != n:
        raise ValueError(f"{path}: expected {n} codevector lines, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != k:
            raise ValueError(f"{path}: expected {k} components per line, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ValueError(f"{path}: malformed codevector line {ln!r}") from None
    return Codebook(np.array(rows, dtype=np.float64))

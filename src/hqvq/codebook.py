"""Codebook handling: metric, full-search baseline, and a plain LBG trainer.

The full search is intentionally the transparent O(N) loop; it doubles as the
correctness oracle for the hybrid encoder.  The trainer runs Lloyd/LBG
iterations (Linde, Buzo and Gray, 1980) in whole-array passes: a window pass
assigns the distinct rows, bounded from the second iteration on by each row's
distance to its cell's new centroid (the upper bound of Hamerly, SDM 2010),
and ``np.bincount`` sums every cell at once.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import kernels


# Largest component magnitude ``as_rows`` accepts.  A squared difference of
# two such components is at most 4 * MAX_COMPONENT**2 = 2**1002, so a sum of
# k of them stays finite for k < 2**22, and every distance is a number.
MAX_COMPONENT = 2.0**500


def as_rows(x, k: int | None = None) -> np.ndarray:
    """Coerce to a finite, non-empty (M, k) float64 array; ``k=None`` takes any width.

    A single vector ``x`` is checked as the one row of ``as_rows([x], k)``.
    Components beyond ``MAX_COMPONENT`` in magnitude are rejected: their
    squared differences would overflow to inf, every distance would read
    inf, and argmin would silently return index 0.
    """
    rows = np.asarray(x, dtype=np.float64)
    if rows.ndim != 2 or 0 in rows.shape:
        raise ValueError(f"expected a non-empty (M, k) array, got shape {rows.shape}")
    if k is not None and rows.shape[1] != k:
        raise ValueError(f"dimension mismatch: vector has {rows.shape[1]}, codebook has {k}")
    largest = float(np.abs(rows).max())  # NaN if any component is NaN
    if not math.isfinite(largest):
        raise ValueError("array has non-finite components")
    if largest > MAX_COMPONENT:
        raise ValueError("array has components beyond 2**500 in magnitude")
    return rows


def decimals(tokens, message: str) -> list[int]:
    """Tokens of ASCII digits (str or bytes) as ints; any other token raises ``ValueError(message)``.

    ``int`` alone would also take a sign, '_', spaces and non-ASCII digits,
    and fails with its own message past its 4300-digit limit.
    """
    if all(t.isascii() and t.isdigit() for t in tokens):
        try:
            return [int(t) for t in tokens]
        except ValueError:  # more digits than int's limit
            pass
    raise ValueError(message)


def check_seed(seed, name: str = "seed") -> None:
    """Reject a seed that is not a non-negative int (bools included), naming it ``name``."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"{name} must be a non-negative int, got {seed!r}")


class DuplicateCodevectors(ValueError):
    """A codebook has two codevectors at distance 0 (delta0 == 0)."""


class Codebook:
    """Ordered set of N equal-dimension codevectors with distinct entries.

    One ``kernels.nearest_other`` pass at construction gives ``nearest_other``,
    each codevector's distance to its nearest other one (a read-only (N,)
    array), and its minimum ``delta0``, the minimum pairwise distance.
    ``projections`` holds each codevector's ``kernels.projections``
    coordinate on the mean axis, ``order`` its stable argsort and ``axis``
    the projections in that order, ascending: sorted once for the encoder's
    windows, walks and table (all three read-only).  A codevector's position
    on the axis is its place in ``order``, so ``order[p]`` is the codevector
    at position p.
    ``norm_scale``, sqrt(k) max |c_d|, bounds every codevector's norm: the
    norm the encoder's strips and discs pass to ``kernels.half_width``.
    Duplicate codevectors (delta0 == 0) are rejected with
    ``DuplicateCodevectors`` because the single-solution guarantee of the
    fast encoding path depends on it.
    """

    def __init__(self, vectors):
        arr = np.array(as_rows(vectors))  # own copy: rows get frozen below
        if arr.shape[0] < 2:
            raise ValueError(f"codebook needs at least 2 codevectors, got {arr.shape[0]}")
        self.vectors = arr
        self.vectors.setflags(write=False)
        self.nearest_other = kernels.nearest_other(arr)
        self.nearest_other.setflags(write=False)
        self.projections = kernels.projections(arr)
        self.projections.setflags(write=False)
        self.order = np.argsort(self.projections, kind="stable")
        self.order.setflags(write=False)
        self.axis = self.projections[self.order]
        self.axis.setflags(write=False)
        self.norm_scale = math.sqrt(arr.shape[1]) * float(np.abs(arr).max())
        self.delta0 = float(self.nearest_other.min())
        if self.delta0 <= 0.0:
            raise DuplicateCodevectors("codebook contains duplicate codevectors (delta0 == 0)")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def k(self) -> int:
        return self.vectors.shape[1]


def distance(a, b) -> float:
    """Euclidean distance between two equal-dimension vectors."""
    va, vb = as_rows([a])[0], as_rows([b])[0]
    if va.shape != vb.shape:
        raise ValueError(f"dimension mismatch: {va.shape[0]} vs {vb.shape[0]}")
    return float(kernels.dist_to_all(va, vb[np.newaxis, :])[0])


def distances_to_codebook(x, codebook: Codebook) -> np.ndarray:
    """Distances from ``x`` to every codevector, in index order."""
    return kernels.dist_to_all(as_rows([x], codebook.k)[0], codebook.vectors)


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
    seed, a non-negative int.
    """
    check_seed(seed)
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
    bad = f"{path}: bad header {lines[0]!r}"
    if len(head) != 4 or head[:2] != ["VQCB", "1"]:
        raise ValueError(bad)
    k, n = decimals(head[2:], bad)
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
    try:
        return Codebook(np.array(rows, dtype=np.float64))
    except ValueError as exc:  # non-finite, duplicate or too few rows; keeps DuplicateCodevectors
        raise type(exc)(f"{path}: {exc}") from None

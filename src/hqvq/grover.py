"""Exact simulation of the amplitude-amplification search over codebook indices.

The search iteration (phase-flip of indices whose distance beats a threshold,
then reflection about the uniform superposition) preserves the two-dimensional
subspace spanned by the marked and unmarked uniform components, so the
post-iteration measurement distribution has a closed form: every marked index
carries sin^2((2j+1)*theta)/t with sin(theta) = sqrt(t/N).  The closed form is
the production path; an explicit statevector iteration is kept as a slow,
size-capped cross-validation oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, distances_to_codebook

STATEVECTOR_CAP = 4096


@dataclass(frozen=True)
class MarkedSet:
    """Indices accepted by the search oracle: {i : d(x, c[i]) < delta}."""

    n: int
    indices: np.ndarray  # strictly increasing 1-D int64

    def __post_init__(self):
        idx = np.array(self.indices, dtype=np.int64)  # own copy: frozen below
        if idx.ndim != 1:
            raise ValueError("marked indices must be 1-D")
        if idx.size > 1 and not (idx[1:] > idx[:-1]).all():
            raise ValueError("marked indices must be sorted and unique")
        if idx.size and (idx[0] < 0 or idx[-1] >= self.n):
            raise ValueError("marked indices out of range")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @property
    def t(self) -> int:
        return int(self.indices.size)


@dataclass
class QueryMeter:
    """Operation counters for one encode call.

    One search iteration = one quantum operation; every charged classical
    distance evaluation counts separately.  Marked-set enumeration inside the
    simulator is never charged (it stands in for the oracle's parallelism).
    """

    grover_iterations: int = 0
    classical_distance_evals: int = 0


@dataclass(frozen=True)
class GroverDistribution:
    """Measurement distribution after j iterations on n indices with t marked."""

    n: int
    t: int
    j: int
    p_marked_each: float
    p_unmarked_each: float

    def total_marked(self) -> float:
        return self.t * self.p_marked_each

    def as_array(self, marked: np.ndarray) -> np.ndarray:
        probs = np.full(self.n, self.p_unmarked_each)
        probs[marked] = self.p_marked_each
        return probs


def marked_set(x, codebook: Codebook, delta: float) -> MarkedSet:
    """Enumerate the oracle's accepting set for threshold ``delta`` (strict <)."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return marked_set_from_distances(distances_to_codebook(x, codebook), delta)


def marked_set_from_distances(distances: np.ndarray, delta: float) -> MarkedSet:
    idx = np.flatnonzero(distances < delta)
    return MarkedSet(n=int(distances.shape[0]), indices=idx)


def grover_distribution(t: int, n: int, j: int) -> GroverDistribution:
    """Closed-form per-index probabilities after j search iterations.

    t == 0 leaves the uniform state fixed (oracle is the identity); t == n is
    uniform over the marked set (only a global phase accumulates).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= t <= n:
        raise ValueError(f"marked count {t} out of range for n={n}")
    if j < 0:
        raise ValueError("iteration count must be >= 0")
    if t == 0:
        return GroverDistribution(n=n, t=t, j=j, p_marked_each=0.0, p_unmarked_each=1.0 / n)
    if t == n:
        return GroverDistribution(n=n, t=t, j=j, p_marked_each=1.0 / n, p_unmarked_each=0.0)
    theta = math.asin(math.sqrt(t / n))
    total = math.sin((2 * j + 1) * theta) ** 2
    return GroverDistribution(
        n=n,
        t=t,
        j=j,
        p_marked_each=total / t,
        p_unmarked_each=(1.0 - total) / (n - t),
    )


def statevector_distribution(marked: MarkedSet, j: int, cap: int = STATEVECTOR_CAP) -> np.ndarray:
    """Reference implementation: apply the iteration j times to real amplitudes.

    Each iteration flips the sign of the marked amplitudes and reflects about
    the uniform vector.  O(j * n); capped because it exists only to
    cross-check the closed form.
    """
    n = marked.n
    if n > cap:
        raise ValueError(f"statevector size {n} exceeds cap {cap}")
    amp = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(j):
        amp[marked.indices] *= -1.0
        amp = 2.0 * amp.mean() - amp
    return amp * amp


def measure(marked: MarkedSet, j: int, rng: np.random.Generator, meter: QueryMeter) -> int:
    """Sample one index from the post-iteration distribution; meters j iterations.

    Sampling uses the closed form directly: a biased coin picks the marked or
    unmarked class, then a uniform draw picks within the class.
    """
    meter.grover_iterations += j
    n, t = marked.n, marked.t
    if t == 0:
        return int(rng.integers(0, n))
    if t == n:
        return int(marked.indices[rng.integers(0, t)])
    dist = grover_distribution(t, n, j)
    if rng.random() < dist.total_marked():
        return int(marked.indices[rng.integers(0, t)])
    return _nth_unmarked(marked, int(rng.integers(0, n - t)))


def _nth_unmarked(marked: MarkedSet, r: int) -> int:
    # r-th smallest index not in the marked set
    for v in marked.indices:
        if v <= r:
            r += 1
        else:
            break
    return int(r)


def derive_rng(master_seed: int, ordinal: int) -> np.random.Generator:
    """Independent per-vector stream so encoding order never affects results."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(ordinal,)))

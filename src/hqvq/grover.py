"""Exact simulation of the amplitude-amplification search over codebook indices.

The search iteration (phase-flip of indices whose distance beats a threshold,
then reflection about the uniform superposition) preserves the two-dimensional
subspace spanned by the marked and unmarked uniform components, so the
post-iteration measurement distribution has a closed form: every marked index
carries sin^2((2j+1)*theta)/t with sin(theta) = sqrt(t/N).  The closed form is
the production path: the batch encoder needs only ``marked_probability``, the
chance that a measurement lands in the marked set, since a measured index
passes its classical check exactly when it is marked.  ``measure`` samples one
index per call, and an explicit statevector iteration is kept as a slow,
size-capped cross-validation oracle.  Nothing here counts cost: the encoder
charges every iteration it simulates.
"""

from __future__ import annotations

import math

import numpy as np

STATEVECTOR_CAP = 4096


def marked_set_from_distances(distances: np.ndarray, delta: float) -> np.ndarray:
    """Indices accepted by the search oracle, {i : distances[i] < delta}, ascending."""
    return np.flatnonzero(distances < delta)


def grover_distribution(t: int, n: int, j: int) -> tuple[float, float]:
    """Closed-form (p_marked_each, p_unmarked_each) after j search iterations.

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
        return 0.0, 1.0 / n
    if t == n:
        return 1.0 / n, 0.0
    theta = math.asin(math.sqrt(t / n))
    total = math.sin((2 * j + 1) * theta) ** 2
    return total / t, (1.0 - total) / (n - t)


def marked_probability(t, n: int, j) -> np.ndarray:
    """Chance that the measurement after j search iterations is one of t marked indices.

    Elementwise over arrays ``t`` and ``j``: sin^2((2j+1)*theta) with
    sin(theta) = sqrt(t/n).  It is 0 when t == 0 and exactly 1 when t == n.
    """
    t = np.asarray(t)
    p = np.sin((2 * np.asarray(j) + 1) * np.arcsin(np.sqrt(t / n))) ** 2
    return np.where(t == n, 1.0, p)


def statevector_distribution(marked: np.ndarray, n: int, j: int) -> np.ndarray:
    """Reference implementation: apply the iteration j times to real amplitudes.

    ``marked`` holds the ascending marked indices out of ``n``.  Each iteration
    flips the sign of the marked amplitudes and reflects about the uniform
    vector.  O(j * n); capped because it exists only to cross-check the
    closed form.
    """
    if n > STATEVECTOR_CAP:
        raise ValueError(f"statevector size {n} exceeds cap {STATEVECTOR_CAP}")
    amp = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(j):
        amp[marked] *= -1.0
        amp = 2.0 * amp.mean() - amp
    return amp * amp


def measure(marked: np.ndarray, n: int, j: int, rng: np.random.Generator) -> int:
    """Sample one index out of ``n`` from the distribution after j search iterations.

    ``marked`` holds the ascending marked indices, as
    ``marked_set_from_distances`` returns them.  Sampling uses the closed form
    directly: a biased coin picks the marked or unmarked class, then a uniform
    draw picks within the class.  Charging the j iterations is the caller's job.
    """
    t = marked.size
    if t == 0:
        return int(rng.integers(0, n))
    if t == n:
        return int(marked[rng.integers(0, t)])
    p_marked_each, _ = grover_distribution(t, n, j)
    if rng.random() < t * p_marked_each:
        return int(marked[rng.integers(0, t)])
    return _nth_unmarked(marked, int(rng.integers(0, n - t)))


def _nth_unmarked(marked: np.ndarray, r: int) -> int:
    # r-th smallest index not in the ascending marked array
    for v in marked:
        if v <= r:
            r += 1
        else:
            break
    return int(r)


def derive_rng(master_seed: int, slot: int) -> np.random.Generator:
    """Independent stream number ``slot`` of the run keyed by ``master_seed``.

    The batch encoder gives each random decision of a block a slot (the
    stage-1 coin, the marked pick, each stage-2 round's j and coin) and reads
    the block's draw for it as element ``ordinal`` of
    ``derive_rng(master_seed, slot).random(M)``.  A prefix of that array does
    not depend on M, so a block's draws depend only on (seed, slot, ordinal),
    never on the batch size, the chunking or the other blocks.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(slot,)))

"""Exact simulation of the amplitude-amplification search over codebook indices.

The search iteration (phase-flip of indices whose distance beats a threshold,
then reflection about the uniform superposition) preserves the two-dimensional
subspace spanned by the marked and unmarked uniform components, so the
post-iteration measurement distribution has a closed form (Boyer, Brassard,
Hoyer and Tapp, quant-ph/9605034): the t marked indices together carry
sin^2((2j+1)*theta) with sin(theta) = sqrt(t/N), shared equally, and the
unmarked ones share the rest.  ``marked_probability`` is its one
implementation.  The batch encoder needs nothing more, since a measured index
passes its classical check exactly when it is marked; ``measure`` samples one
index from it per call.  The tests hold ``marked_probability`` against an
explicit statevector iteration (``tests/reference_grover.py``).  Nothing
here counts cost: the encoder charges every iteration it simulates.
"""

from __future__ import annotations

import numpy as np


def marked_set_from_distances(distances: np.ndarray, delta: float) -> np.ndarray:
    """Indices accepted by the search oracle, {i : distances[i] < delta}, ascending."""
    return np.flatnonzero(distances < delta)


def marked_probability(t, n, j) -> np.ndarray:
    """Chance that the measurement after j search iterations over n indices is one of t marked ones.

    Elementwise over arrays ``t``, ``n`` and ``j``: sin^2((2j+1)*theta) with
    sin(theta) = sqrt(t/n).  It is 0 when t == 0 and exactly 1 when t == n.
    """
    t = np.asarray(t)
    p = np.sin((2 * np.asarray(j) + 1) * np.arcsin(np.sqrt(t / n))) ** 2
    return np.where(t == n, 1.0, p)


def measure(marked: np.ndarray, n: int, j: int, rng: np.random.Generator) -> int:
    """Sample one index out of ``n`` from the distribution after j search iterations.

    ``marked`` holds the ascending marked indices, as
    ``marked_set_from_distances`` returns them.  A coin with the
    ``marked_probability`` bias picks the marked or unmarked class, then a
    uniform draw picks within the class.  Charging the j iterations is the
    caller's job.
    """
    t = marked.size
    if t == 0:
        return int(rng.integers(0, n))
    if t == n or rng.random() < marked_probability(t, n, j):
        return int(marked[rng.integers(0, t)])
    r = int(rng.integers(0, n - t))
    # the r-th unmarked index: r plus the count of marked indices i with marked[i] - i <= r
    return r + int(np.searchsorted(marked - np.arange(t), r, side="right"))


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

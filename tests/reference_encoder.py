"""Plain-Python per-block reference for the batch encoder.

It walks one block at a time through stage 1, the stage-2 rounds and the
fallback, reading the block's distance row and its own draw for each slot:
slot 0 is the stage-1 coin, slot 1 the marked pick, and slots 2r+2 and 2r+3
the iteration count j and the coin of stage-2 round r.  The batch must give
every block the same (index, path, meter) when fed the same draws.
``run_stage`` runs one batch stage alone on the same draws.
"""

import math

import numpy as np

from hqvq.encoder import (
    BBHT_GROWTH,
    PICK_SLOT,
    EncodeOutcome,
    EncodePath,
    QueryMeter,
    block_facts,
    encode_sub1,
    encode_sub2,
    sub1_iterations,
    sub1_radii,
    sub2_budget,
)
from hqvq.grover import derive_rng, marked_probability


def seeded_draws(master_seed: int, size: int):
    """The batch's draw function: slot -> one uniform per block, as ``encode_vectors`` keys it."""
    return lambda slot: derive_rng(master_seed, slot).random(size)


def block_draws(draw, ordinal: int):
    """One block's view of a batch draw function: slot -> its draw, each slot drawn once."""
    cache = {}

    def u(slot: int) -> float:
        if slot not in cache:
            cache[slot] = float(draw(slot)[ordinal])
        return cache[slot]

    return u


def trials(x, count: int) -> np.ndarray:
    """``count`` copies of the vector x as a batch, one trial per row."""
    return np.tile(np.asarray(x, dtype=np.float64), (count, 1))


def run_stage(stage: int, rows, cb, table, seed: int):
    """Run batch stage 1 or 2 alone on every row, with the rows' draws keyed by ``seed``.

    Returns (facts, accepted mask, meter with only that stage's charges).
    """
    rows = np.asarray(rows, dtype=np.float64)
    size = rows.shape[0]
    draw = seeded_draws(seed, size)
    facts = block_facts(rows, cb, table, draw(PICK_SLOT))
    meter = QueryMeter(np.zeros(size, dtype=np.int64), np.zeros(size, dtype=np.int64))
    if stage == 1:
        accepted = encode_sub1(facts, cb.n, draw, meter)
    else:
        accepted = encode_sub2(facts, np.arange(size), cb.n, draw, meter)
    return facts, accepted, meter


def success_chance(t: int, n: int, j: int) -> float:
    """``marked_probability`` for one block, computed on 1-element arrays as the batch does.

    numpy rounds the 0-d path differently from the array path in the last bit
    (at (t, n, j) = (5, 7, 3)), so a scalar call could flip a coin the batch
    does not.
    """
    return float(marked_probability(np.array([t]), n, np.array([j]))[0])


def reference_encode(dvec, codebook, table, u) -> EncodeOutcome:
    """Encode one block from its distance row; ``u(slot)`` is its draw for the slot."""
    dvec = [float(d) for d in dvec]
    n = len(dvec)
    index = min(range(n), key=lambda i: (dvec[i], i))
    meter = QueryMeter()

    t_s = sum(1 for d, r in zip(dvec, sub1_radii(codebook)) if d < r)
    j = sub1_iterations(n)
    meter.grover_iterations += j
    meter.classical_distance_evals += 1
    if u(0) < success_chance(t_s, n, j):
        return EncodeOutcome(index, EncodePath.SUB1, meter)
    if reference_stage2(dvec, table, u, meter):
        return EncodeOutcome(index, EncodePath.SUB2, meter)
    meter.classical_distance_evals += n
    return EncodeOutcome(index, EncodePath.CLASSICAL_FALLBACK, meter)


def reference_stage2(dvec, table, u, meter: QueryMeter, rounds: list | None = None) -> bool:
    """Stage 2 alone for one block: charge ``meter``, return whether a round hit.

    ``rounds``, when given, gets the j of every round that ran, in order.
    """
    n = len(dvec)
    marked = [i for i, d in enumerate(dvec) if d < table.delta_hat]
    t = len(marked)
    scan = len(table.neighbors(marked[min(int(u(1) * t), t - 1)])) if t else 0
    m, spent, r = 1.0, 0, 0
    while True:
        cutoff = math.floor(m) + 1
        j = min(int(u(2 * r + 2) * cutoff), cutoff - 1)
        if spent + j > sub2_budget(n):
            return False
        spent += j
        if rounds is not None:
            rounds.append(j)
        meter.grover_iterations += j
        meter.classical_distance_evals += 1
        if u(2 * r + 3) < success_chance(t, n, j):
            meter.classical_distance_evals += scan
            return True
        m = min(BBHT_GROWTH * m, math.sqrt(n))
        r += 1

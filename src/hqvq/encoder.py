"""Two-stage hybrid nearest-codevector encoder with full query metering.

Stage 1 targets inputs sitting within half the minimum codevector spacing of
some codevector: a single fixed-length amplified search finds the (provably
unique) solution with near-certain probability, and one classical distance
check verifies it.  Stage 2 targets inputs within the configured threshold:
the search is embedded in a growing-cutoff schedule for an unknown number of
solutions; any verified hit is finished by a classical scan of that
codevector's neighbor list, which provably contains the global optimum.
Anything else falls back to the exhaustive classical search.  Every path is
exact; randomness only affects cost, never the returned index.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .codebook import Codebook, distances_to_codebook, full_search
from .grover import QueryMeter, marked_set_from_distances, measure
from .neighborhood import NeighborhoodTable

# Factor that grows the stage-2 iteration cutoff m after each failed round
# (Boyer, Brassard, Hoyer and Tapp's lambda, any value in (1, 4/3) works).
BBHT_GROWTH = 6.0 / 5.0

# Stage 2 spends at most ceil(BBHT_BUDGET_FACTOR * sqrt(N)) search iterations
# per vector; the schedule alone has no stopping rule when no solution exists.
BBHT_BUDGET_FACTOR = 3.0


class EncodePath(enum.Enum):
    SUB1 = "sub1"
    SUB2 = "sub2"
    CLASSICAL_FALLBACK = "fallback"


@dataclass(frozen=True)
class EncoderConfig:
    """Settings of one encode run.

    ``delta_hat`` is the stage-2 verification threshold (must be at least half
    the codebook's minimum pairwise distance; checked against the table at
    encode time).  ``master_seed`` keys every vector's random stream.
    """

    delta_hat: float
    master_seed: int = 0

    def __post_init__(self):
        if not self.delta_hat > 0:
            raise ValueError("delta_hat must be > 0")


@dataclass(frozen=True)
class EncodeOutcome:
    index: int
    path: EncodePath
    meter: QueryMeter


def sub1_iterations(n: int) -> int:
    """Fixed stage-1 iteration count: floor(pi/4 * sqrt(N))."""
    return math.floor(math.pi / 4.0 * math.sqrt(n))


def sub2_budget(n: int) -> int:
    return math.ceil(BBHT_BUDGET_FACTOR * math.sqrt(n))


def encode_sub1(
    dvec: np.ndarray,
    codebook: Codebook,
    rng: np.random.Generator,
    meter: QueryMeter,
) -> int | None:
    """Single amplified search at threshold delta0/2, then classical verification.

    ``dvec`` holds the input's distances to every codevector; the simulator's
    oracle reads it without charge, and the meter counts only the one
    verification.  Returns the measured index when its verified distance is
    strictly below delta0/2 (it is then the unique global optimum), else None.
    """
    half_delta0 = codebook.delta0 / 2.0
    marked = marked_set_from_distances(dvec, half_delta0)
    i0 = measure(marked, sub1_iterations(codebook.n), rng, meter)
    d0 = float(dvec[i0])
    meter.classical_distance_evals += 1
    if d0 < half_delta0:
        return i0
    return None


def encode_sub2(
    dvec: np.ndarray,
    table: NeighborhoodTable,
    cfg: EncoderConfig,
    rng: np.random.Generator,
    meter: QueryMeter,
    trace: list | None = None,
) -> int | None:
    """Randomized-cutoff search rounds, each finished by a neighbor-list scan.

    Every round draws j uniformly from {0..floor(m)}, measures after j
    iterations, and classically checks the outcome h.  A verified h
    (d(x, c[h]) < delta_hat) is finished by scanning the neighbors of h: by
    the triangle inequality any codevector outside that list is farther than
    delta_hat, so the scan's argmin is the global optimum.  Rounds stop and
    None is returned (caller falls back) once the next draw would push the
    per-call iteration total past the budget.

    ``dvec`` is read as in ``encode_sub1``.
    """
    if table.delta_hat != cfg.delta_hat:
        raise ValueError(
            f"neighborhood table delta_hat {table.delta_hat} does not match "
            f"the encoder's delta_hat {cfg.delta_hat}"
        )
    n = dvec.shape[0]
    sqrt_n = math.sqrt(n)
    budget = sub2_budget(n)
    marked = marked_set_from_distances(dvec, cfg.delta_hat)

    m = 1.0
    spent = 0
    # safety net: the budget only advances on nonzero draws, so bound rounds too
    max_rounds = 64 + 16 * max(1, n.bit_length())
    for _ in range(max_rounds):
        j = int(rng.integers(0, math.floor(m) + 1))
        if spent + j > budget:
            return None
        h = measure(marked, j, rng, meter)
        spent += j
        y0 = float(dvec[h])
        meter.classical_distance_evals += 1
        if trace is not None:
            trace.append({"j": j, "h": h, "y0": y0})
        if y0 < cfg.delta_hat:
            neighbors = table.lists[h]
            meter.classical_distance_evals += len(neighbors)
            local = np.argmin(dvec[neighbors])
            return int(neighbors[local])
        m = min(BBHT_GROWTH * m, sqrt_n)
    return None


def encode(
    x,
    codebook: Codebook,
    table: NeighborhoodTable,
    cfg: EncoderConfig,
    rng: np.random.Generator,
    dvec: np.ndarray | None = None,
    trace: list | None = None,
) -> EncodeOutcome:
    """Full hybrid encode: stage 1, then stage 2, then classical fallback.

    ``dvec``, the distances from ``x`` to every codevector, is computed here
    when the caller does not pass it.
    """
    if dvec is None:
        dvec = distances_to_codebook(x, codebook)
    meter = QueryMeter()
    i = encode_sub1(dvec, codebook, rng, meter)
    if i is not None:
        return EncodeOutcome(index=i, path=EncodePath.SUB1, meter=meter)
    i = encode_sub2(dvec, table, cfg, rng, meter, trace=trace)
    if i is not None:
        return EncodeOutcome(index=i, path=EncodePath.SUB2, meter=meter)
    i, _ = full_search(x, codebook)
    meter.classical_distance_evals += codebook.n
    return EncodeOutcome(index=i, path=EncodePath.CLASSICAL_FALLBACK, meter=meter)


def choose_delta_hat(codebook: Codebook, training_sample, percentile: float = 99.0) -> float:
    """Pick the stage-2 threshold so it covers the given share of real inputs.

    Runs one nearest-codevector pass over the sample and hands its distances
    to ``delta_hat_from_nearest``.
    """
    sample = np.asarray(training_sample, dtype=np.float64)
    if sample.ndim != 2 or sample.shape[0] < 1:
        raise ValueError("training sample must be a non-empty (M, k) array")
    codebook.check_dim(sample[0])
    _, nearest = kernels.nearest_many(sample, codebook.vectors)
    return delta_hat_from_nearest(nearest, codebook.delta0, percentile)


def delta_hat_from_nearest(nearest, delta0: float, percentile: float = 99.0) -> float:
    """Nearest-rank percentile of nearest-codevector distances, kept above delta0/2.

    The result is clamped to the next float above delta0/2, so the threshold
    is always valid for ``build_neighborhoods``.
    """
    if not 0 < percentile <= 100:
        raise ValueError("percentile must be in (0, 100]")
    dists = np.sort(np.asarray(nearest, dtype=np.float64))
    rank = math.ceil(percentile / 100.0 * dists.size)  # nearest-rank, 1-based
    value = float(dists[max(rank, 1) - 1])
    floor_value = float(np.nextafter(delta0 / 2.0, math.inf))
    return max(floor_value, value)

"""Two-stage hybrid nearest-codevector encoder with full query metering.

Stage 1 targets inputs sitting within half the minimum codevector spacing of
some codevector: a single fixed-length amplified search finds the (provably
unique) solution with near-certain probability, and one classical distance
check verifies it.  Stage 2 targets inputs within the configured threshold:
the search is embedded in a growing-cutoff schedule for an unknown number of
solutions; any verified hit is finished by a classical scan of that
codevector's neighbor list, which provably contains the global optimum.
Anything else falls back to the exhaustive classical search.  The index is
the distance vector's argmin; the stages only simulate and charge the search,
so randomness never affects the index.  This module alone charges the meter.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .codebook import Codebook, full_search  # noqa: F401 (perfbench/spans.py wraps it by name)
from .grover import marked_set_from_distances, measure
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
    the codebook's minimum pairwise distance; ``encode_vectors`` checks that
    it is the one the neighborhood table was built for).  ``master_seed``
    keys every vector's random stream.
    """

    delta_hat: float
    master_seed: int = 0

    def __post_init__(self):
        if not self.delta_hat > 0:
            raise ValueError("delta_hat must be > 0")


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
class EncodeOutcome:
    index: int
    path: EncodePath
    meter: QueryMeter


def sub1_iterations(n: int) -> int:
    """Fixed stage-1 iteration count: floor(pi/4 * sqrt(N))."""
    return math.floor(math.pi / 4.0 * math.sqrt(n))


def sub2_budget(n: int) -> int:
    return math.ceil(BBHT_BUDGET_FACTOR * math.sqrt(n))


def _search_round(marked, j, dvec, threshold, rng, meter, trace) -> int | None:
    """One measurement after j search iterations, then its classical check.

    Charges the j iterations and the one verification, and appends the round
    to ``trace`` when given.  Returns the measured index h when its verified
    distance ``dvec[h]`` is strictly below ``threshold``, else None.
    """
    h = measure(marked, dvec.shape[0], j, rng)
    meter.grover_iterations += j
    y0 = float(dvec[h])
    meter.classical_distance_evals += 1
    if trace is not None:
        trace.append({"j": j, "h": h, "y0": y0})
    return h if y0 < threshold else None


def encode_sub1(
    dvec: np.ndarray,
    codebook: Codebook,
    rng: np.random.Generator,
    meter: QueryMeter,
) -> int | None:
    """Single amplified search at threshold delta0/2, then classical verification.

    ``dvec`` holds the input's distances to every codevector; the simulator's
    oracle reads it without charge.  The meter counts the search iterations
    and the one verification.  Returns the measured index when its verified
    distance is strictly below delta0/2 (it is then the unique global
    optimum), else None.
    """
    half_delta0 = codebook.delta0 / 2.0
    marked = marked_set_from_distances(dvec, half_delta0)
    return _search_round(marked, sub1_iterations(codebook.n), dvec, half_delta0, rng, meter, None)


def encode_sub2(
    dvec: np.ndarray,
    table: NeighborhoodTable,
    rng: np.random.Generator,
    meter: QueryMeter,
    trace: list | None = None,
) -> int | None:
    """Randomized-cutoff search rounds, each hit finished by a neighbor-list scan.

    Every round draws j uniformly from {0..floor(m)}, measures after j
    iterations, and classically checks the outcome h.  A verified h
    (d(x, c[h]) < delta_hat) is returned and charged the scan of its list:
    by the triangle inequality any codevector outside it is farther than
    delta_hat, so the optimum lies in h's list.  The budget is the only
    stopping rule: once the next draw would push the per-call iteration
    total past it, None is returned (caller falls back).  Every round draws
    j >= 1 with probability at least 1/2, so the loop ends with probability 1.

    ``dvec`` is read as in ``encode_sub1``; delta_hat is the table's.
    """
    delta_hat = table.delta_hat
    n = dvec.shape[0]
    sqrt_n = math.sqrt(n)
    budget = sub2_budget(n)
    marked = marked_set_from_distances(dvec, delta_hat)

    m = 1.0
    spent = 0
    while True:
        j = int(rng.integers(0, math.floor(m) + 1))
        if spent + j > budget:
            return None
        spent += j
        h = _search_round(marked, j, dvec, delta_hat, rng, meter, trace)
        if h is not None:
            meter.classical_distance_evals += len(table.lists[h])
            return h
        m = min(BBHT_GROWTH * m, sqrt_n)


def encode(
    dvec: np.ndarray,
    codebook: Codebook,
    table: NeighborhoodTable,
    rng: np.random.Generator,
    trace: list | None = None,
) -> EncodeOutcome:
    """Full hybrid encode: stage 1, then stage 2, then classical fallback.

    ``dvec`` holds the input's distances to every codevector, and stage 2
    runs at the table's delta_hat.  The index is the argmin of ``dvec``,
    ties to the smallest index, whichever stage accepts; the stages decide
    only the path and what the meter is charged.
    """
    meter = QueryMeter()
    if encode_sub1(dvec, codebook, rng, meter) is not None:
        path = EncodePath.SUB1
    elif encode_sub2(dvec, table, rng, meter, trace=trace) is not None:
        path = EncodePath.SUB2
    else:
        meter.classical_distance_evals += codebook.n
        path = EncodePath.CLASSICAL_FALLBACK
    return EncodeOutcome(index=int(np.argmin(dvec)), path=path, meter=meter)


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

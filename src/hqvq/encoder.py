"""Two-stage hybrid nearest-codevector encoder with full query metering.

Stage 1 targets inputs sitting within half the minimum codevector spacing of
some codevector: a single fixed-length amplified search finds the (provably
unique) solution with near-certain probability, and one classical distance
check verifies it.  Its threshold sits a rounding margin below delta0/2
(``sub1_radius``), so the uniqueness holds for computed distances too.
Stage 2 targets inputs within the configured threshold: the search is
embedded in a growing-cutoff schedule for an unknown number of solutions;
any verified hit is finished by a classical scan of that codevector's
neighbor list, which provably contains the global optimum.
Anything else falls back to the exhaustive classical search.  The index is
the distance row's argmin; the stages only simulate and charge the search,
so randomness never affects the index.  This module alone charges the meter.

``encode`` works on a batch.  One projection-window pass over the distinct
blocks' distances reduces each block to a few facts (``BlockFacts``); equal
blocks share the pass but keep their own draws.  A measured index passes its
classical check exactly when it is marked, so every search round is a coin
with the closed-form success probability, and stage 1 and the stage-2 rounds
run for all blocks at once on those facts.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import kernels
from .codebook import Codebook, as_rows
from .codebook import full_search  # noqa: F401 (perfbench/spans.py wraps it by name)
from .grover import marked_probability
from .grover import marked_set_from_distances, measure  # noqa: F401 (perfbench/spans.py wraps them by name)
from .neighborhood import NeighborhoodTable

# Factor that grows the stage-2 iteration cutoff m after each failed round
# (Boyer, Brassard, Hoyer and Tapp's lambda, any value in (1, 4/3) works).
BBHT_GROWTH = 6.0 / 5.0

# Stage 2 spends at most ceil(BBHT_BUDGET_FACTOR * sqrt(N)) search iterations
# per vector; the schedule alone has no stopping rule when no solution exists.
BBHT_BUDGET_FACTOR = 3.0

# Draw slots (see ``grover.derive_rng``): the stage-1 coin, the marked index a
# stage-2 hit measures, then stage-2 round r's j at slot 2r+2 and coin at 2r+3.
SUB1_SLOT = 0
PICK_SLOT = 1


class EncodePath(enum.Enum):
    SUB1 = "sub1"
    SUB2 = "sub2"
    CLASSICAL_FALLBACK = "fallback"


# EncodeBatch.path holds positions in this tuple
PATHS = tuple(EncodePath)


@dataclass(frozen=True)
class EncoderConfig:
    """Settings of one encode run.

    ``delta_hat`` is the stage-2 verification threshold (must be at least half
    the codebook's minimum pairwise distance; ``encode_vectors`` checks that
    it is the one the neighborhood table was built for).  ``master_seed``, a
    non-negative int, keys every random draw of the run.
    """

    delta_hat: float
    master_seed: int = 0

    def __post_init__(self):
        if not self.delta_hat > 0:
            raise ValueError("delta_hat must be > 0")
        seed = self.master_seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"master_seed must be a non-negative int, got {seed!r}")


@dataclass
class QueryMeter:
    """Operation counters: ints for one block, (M,) int64 arrays for a batch.

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


@dataclass(frozen=True)
class BlockFacts:
    """What the search simulation reads from each block's distance row, as (M,) arrays."""

    index: np.ndarray  # argmin of the row, ties to the smallest index
    nearest: np.ndarray  # the row's minimum
    t_s: np.ndarray  # marked by stage 1: #{i : d_i < sub1_radius}, 0 or 1
    t: np.ndarray  # marked at delta_hat: #{i : d_i < delta_hat}
    pick_size: np.ndarray  # list size of the marked index a stage-2 hit measures; 0 if t == 0


@dataclass(frozen=True, eq=False)
class EncodeBatch(Sequence):
    """Result of one batch encode, block by block in input order.

    A read-only sequence of ``EncodeOutcome``: ``batch[b]`` builds block b's
    outcome, with plain ints, only when asked for; iteration goes through it.
    """

    facts: BlockFacts
    path: np.ndarray  # int8 positions in PATHS
    meter: QueryMeter  # (M,) int64 arrays

    def __len__(self) -> int:
        return self.path.size

    def __getitem__(self, b: int) -> EncodeOutcome:
        b = range(len(self))[operator.index(b)]
        return EncodeOutcome(
            int(self.facts.index[b]),
            PATHS[self.path[b]],
            QueryMeter(int(self.meter.grover_iterations[b]), int(self.meter.classical_distance_evals[b])),
        )


def sub1_iterations(n: int) -> int:
    """Fixed stage-1 iteration count: floor(pi/4 * sqrt(N))."""
    return math.floor(math.pi / 4.0 * math.sqrt(n))


def sub1_radius(delta0: float, k: int) -> float:
    """Stage 1's threshold: a computed distance below it is exactly below delta0/2.

    With ``kernels.rounding_bound(k)``'s g, a computed distance d' is within
    g * d of the exact d, and the computed delta0 is at most (1 + g) times
    the exact one.  So d' < (delta0/2)(1 - g)/(1 + g) means d < exact
    delta0/2, and by the triangle inequality at most one codevector is that
    close; it is the row's argmin, since every other computed distance is
    above the threshold.  1 - 3g lies below (1 - g)/(1 + g) by more than the
    rounding of this product.
    """
    return delta0 / 2.0 * (1.0 - 3.0 * kernels.rounding_bound(k))


def sub2_budget(n: int) -> int:
    return math.ceil(BBHT_BUDGET_FACTOR * math.sqrt(n))


def block_facts(
    vectors: np.ndarray,
    codebook: Codebook,
    table: NeighborhoodTable,
    pick: np.ndarray,
) -> BlockFacts:
    """One window pass over the distinct blocks' distances, kept as ``BlockFacts``.

    ``vectors`` is a finite (M, k) float64 array of the codebook's dimension.
    ``pick`` holds each block's uniform draw in [0, 1) for the marked index a
    stage-2 hit measures: the one at position floor(pick * t) of the t
    marked indices in ascending order, uniform among them.  The pass runs
    ``kernels.window_tiles`` over ``kernels.distinct_rows(vectors)`` at
    radius delta_hat: each row's window holds every codevector within
    max(delta_hat, its nearest distance), so the facts equal the full row's.
    Equal blocks share their row's facts but each picks with its own draw,
    in the tile that holds its row.  No M x N matrix is kept.
    """
    distinct, inverse = kernels.distinct_rows(vectors)
    u = distinct.shape[0]
    radius_s = sub1_radius(codebook.delta0, codebook.k)
    sizes = table.sizes()
    index = np.empty(u, dtype=np.int64)
    nearest = np.empty(u)
    t = np.empty(u, dtype=np.int64)
    pick_size = np.zeros(vectors.shape[0], dtype=np.int64)
    # the blocks of distinct row r are by_row[row_first[r] : row_first[r] + row_count[r]]
    by_row = np.argsort(inverse)
    row_count = np.bincount(inverse, minlength=u)
    row_first = np.cumsum(row_count) - row_count
    for rows, cols, d in kernels.window_tiles(distinct, codebook.vectors, table.delta_hat):
        arg = d.argmin(axis=1)
        index[rows] = cols[arg]
        nearest[rows] = d[np.arange(rows.size), arg]
        marked = d < table.delta_hat
        count = np.count_nonzero(marked, axis=1)
        t[rows] = count
        # the tile's blocks, grouped by tile row: row[b] is block b's row in d
        per_row = row_count[rows]
        row = np.repeat(np.arange(rows.size), per_row)
        shift = np.repeat(row_first[rows] - (np.cumsum(per_row) - per_row), per_row)
        blocks = by_row[shift + np.arange(row.size)]
        block_t = count[row]
        k = np.minimum((pick[blocks] * block_t).astype(np.int64), block_t - 1)
        hit = block_t > 0
        # row-major flat positions list each row's marked columns in ascending order
        first = np.cumsum(count) - count
        h = cols[np.flatnonzero(marked)[first[row[hit]] + k[hit]] % cols.size]
        pick_size[blocks[hit]] = sizes[h]
    # below sub1_radius, the marked codevector is unique and is the argmin
    t_s = (nearest < radius_s).astype(np.int64)
    return BlockFacts(
        index=index[inverse], nearest=nearest[inverse], t_s=t_s[inverse], t=t[inverse], pick_size=pick_size
    )


def encode_sub1(facts: BlockFacts, n: int, draw, meter: QueryMeter) -> np.ndarray:
    """Stage 1 for every block: one amplified search below delta0/2, then one verification.

    ``draw(slot)`` returns one uniform draw in [0, 1) per block.  Each block
    is charged the fixed iteration count and one evaluation.  Returns the
    mask of blocks whose measured index is marked, i.e. verified strictly
    below ``sub1_radius`` (it is then the unique global optimum).
    """
    j = sub1_iterations(n)
    meter.grover_iterations += j
    meter.classical_distance_evals += 1
    return draw(SUB1_SLOT) < marked_probability(facts.t_s, n, j)


def success_table(levels: np.ndarray, n: int) -> np.ndarray:
    """``marked_probability(levels[a], n, j)`` at [a, j], for every j a stage-2 round can draw.

    ``levels`` holds marked counts t (int64).  A round's cutoff never exceeds
    floor(sqrt(N)) + 1, so j runs over 0..floor(sqrt(N)).  The table is one
    ``marked_probability`` call on flat int64 arrays, as a per-round call on
    the live blocks would make it, and holds the same bits.
    """
    width = math.floor(math.sqrt(n)) + 1
    j = np.tile(np.arange(width, dtype=np.int64), levels.size)
    return marked_probability(np.repeat(levels, width), n, j).reshape(levels.size, width)


def encode_sub2(
    facts: BlockFacts,
    blocks: np.ndarray,
    n: int,
    draw,
    meter: QueryMeter,
) -> np.ndarray:
    """Randomized-cutoff search rounds for ``blocks``, all in lockstep.

    Round r draws each live block's j uniformly from {0..floor(m)}, charges
    the j iterations and one verification, and accepts the block when its
    coin lands on the marked set (the measured index h then verifies below
    delta_hat).  An accepted block is charged the scan of h's neighbor list,
    ``facts.pick_size``: by the triangle inequality any codevector outside
    it is farther than delta_hat, so the optimum lies in h's list.  The
    budget is the only stopping rule: a block whose next draw would push its
    iteration total past it leaves unaccepted (caller falls back).  Every
    round draws j >= 1 with probability at least 1/2, so the rounds end with
    probability 1.  The cutoff m is the same for every block in a round.

    The rounds carry compact arrays over the live blocks only (ordinal,
    iterations spent, table cell), shrunk by each round's leavers.  Every
    live block has run the same r rounds, so a block's meter is written
    once, when it hits or leaves on the budget.  The coin's bias comes from
    ``success_table`` over the distinct t of ``blocks``, built once per call.

    ``draw`` is as in ``encode_sub1``; ``blocks`` holds the distinct
    ordinals of the blocks that enter stage 2.  Returns the mask of accepted
    blocks over the whole batch.
    """
    sqrt_n = math.sqrt(n)
    budget = sub2_budget(n)
    accepted = np.zeros(facts.t.size, dtype=bool)
    t = facts.t[blocks]
    present = np.zeros(n + 1, dtype=bool)
    present[t] = True
    table = success_table(np.flatnonzero(present), n)
    chance = table.ravel()
    # each live block's row of ``chance``: its t's position among the present levels
    cell = (np.cumsum(present) - 1)[t] * table.shape[1]
    live = blocks  # ordinals of the blocks still searching
    spent = np.zeros(blocks.size, dtype=np.int64)
    m = 1.0
    r = 0
    while live.size:
        cutoff = math.floor(m) + 1
        j = np.minimum((draw(2 * r + 2)[live] * cutoff).astype(np.int64), cutoff - 1)
        spent += j
        over = spent > budget
        if over.any():  # these leave unaccepted, charged the r rounds they ran
            gone = live[over]
            meter.grover_iterations[gone] += spent[over] - j[over]
            meter.classical_distance_evals[gone] += r
            stay = ~over
            live, spent, cell, j = live[stay], spent[stay], cell[stay], j[stay]
        hit = draw(2 * r + 3)[live] < chance[cell + j]
        if hit.any():  # accepted after r + 1 verifications and h's list scan
            done = live[hit]
            meter.grover_iterations[done] += spent[hit]
            meter.classical_distance_evals[done] += r + 1 + facts.pick_size[done]
            accepted[done] = True
            miss = ~hit
            live, spent, cell = live[miss], spent[miss], cell[miss]
        m = min(BBHT_GROWTH * m, sqrt_n)
        r += 1
    return accepted


def encode(
    vectors: np.ndarray,
    codebook: Codebook,
    table: NeighborhoodTable,
    draw,
) -> EncodeBatch:
    """Full hybrid encode of a batch: stage 1, then stage 2, then classical fallback.

    ``vectors`` is a finite (M, k) float64 array of the codebook's dimension
    (``encode_vectors`` checks it).  ``draw(slot)`` returns one uniform draw
    in [0, 1) per block for each slot.  Stage 2 runs at the table's
    delta_hat.  Each block's index is the argmin of its distance row, ties to
    the smallest index, whichever stage accepts; the stages decide only the
    path and what the meter is charged.
    """
    facts = block_facts(vectors, codebook, table, draw(PICK_SLOT))
    size = vectors.shape[0]
    meter = QueryMeter(np.zeros(size, dtype=np.int64), np.zeros(size, dtype=np.int64))
    path = np.full(size, PATHS.index(EncodePath.CLASSICAL_FALLBACK), dtype=np.int8)
    sub1 = encode_sub1(facts, codebook.n, draw, meter)
    path[sub1] = PATHS.index(EncodePath.SUB1)
    sub2 = encode_sub2(facts, np.flatnonzero(~sub1), codebook.n, draw, meter)
    path[sub2] = PATHS.index(EncodePath.SUB2)
    meter.classical_distance_evals[~(sub1 | sub2)] += codebook.n
    return EncodeBatch(facts=facts, path=path, meter=meter)


def nearest_distances(codebook: Codebook, sample) -> np.ndarray:
    """Each sample row's distance to its nearest codevector, in row order.

    One ``window_nearest`` pass over the sample's distinct rows, gathered back
    to every row.  The sample must be a finite, non-empty (M, k) array of the
    codebook's dimension.
    """
    distinct, inverse = kernels.distinct_rows(as_rows(sample, codebook.k))
    _, nearest = kernels.window_nearest(distinct, codebook.vectors)
    return nearest[inverse]


def choose_delta_hat(codebook: Codebook, training_sample, percentile: float = 99.0) -> float:
    """Pick the stage-2 threshold so it covers the given share of real inputs.

    Checks ``percentile`` first, then hands every sample row's
    ``nearest_distances`` to ``delta_hat_from_nearest``.
    """
    check_percentile(percentile)
    nearest = nearest_distances(codebook, training_sample)
    return delta_hat_from_nearest(nearest, codebook.delta0, percentile)


def check_percentile(percentile: float) -> None:
    """Reject a percentile outside (0, 100], NaN included."""
    if not 0 < percentile <= 100:
        raise ValueError("percentile must be in (0, 100]")


def delta_hat_from_nearest(nearest, delta0: float, percentile: float = 99.0) -> float:
    """Nearest-rank percentile of nearest-codevector distances, kept above delta0/2.

    The result is clamped to the next float above delta0/2, so the threshold
    is always valid for ``build_neighborhoods``.
    """
    check_percentile(percentile)
    dists = np.sort(np.asarray(nearest, dtype=np.float64))
    rank = math.ceil(percentile / 100.0 * dists.size)  # nearest-rank, 1-based
    value = float(dists[max(rank, 1) - 1])
    floor_value = float(np.nextafter(delta0 / 2.0, math.inf))
    return max(floor_value, value)

"""Two-stage hybrid nearest-codevector encoder with full query metering.

Stage 1 targets inputs sitting within half of some codevector's distance to
its nearest other codevector (Orchard's half-distance test, ICASSP 1991): a
single fixed-length amplified search finds the (provably unique) solution,
and one classical distance check verifies it.  This generalises the paper's
test at half the minimum spacing, delta0/2: no codevector's radius is below
it, so every input that test marks is still marked.  Each radius r_i sits a
rounding margin below the half-distance (``sub1_radii``), so the uniqueness
holds for computed distances too.  The search runs over S(x) alone, the
codevectors whose own radius can reach the block: those within
``kernels.half_width`` of r_i of its projection, which hold every index
stage 1 can mark (the margin's argument is ``half_width``'s, applied to
each i).  That is floor(pi/4 sqrt(|S(x)|)) iterations instead of the
paper's floor(pi/4 sqrt(N)), a classical pre-filter around a quantum search
as in Cerf, Grover and Williams (Phys. Rev. A 61, 032303, 2000).  Where a
phase-matched search (G. L. Long, Phys. Rev. A 64, 022307, 2001) of as many
iterations exists, the search is that one and finds the marked index with
certainty (``sub1_table``).  The paper's stage 1 is the plain search at
W = N: one ``encode_sub1`` and one ``sub1_table`` serve both, on the same
draws, and the paper's charges go to ``EncodeBatch.paper``.
Stage 2 targets inputs within the configured threshold: the search is
embedded in a growing-cutoff schedule for an unknown number of solutions
(Boyer, Brassard, Hoyer and Tapp, quant-ph/9605034); any verified hit is
finished by a classical scan of that codevector's neighbor list, which
provably contains the global optimum.  It too searches the block's own
projection window, the W_t codevectors within ``kernels.half_width(delta_hat)``
of its projection, which hold every index marked at delta_hat, padded with
W_t dummies the oracle never marks: a register of D = 2 W_t, so the marked
share t/D is at most 1/2, inside the bound's t <= 3D/4.  Each block's cutoff
grows to sqrt(D) and its budget is ceil(3 sqrt(D)), not the paper's sqrt(N)
and ceil(3 sqrt(N)).  The paper's stage 2 over N runs beside it on the same
draws, in the same ``encode_sub2`` call.  For k >= 3 both domains shrink
from strips to discs on the plane of the mean axis and the split axis
(``kernels.split_projections``; for 2 x 2 blocks, the first Haar detail of
Lee and Chen's mean pyramid, IEEE Trans. Commun., 1995), with the same
radii, read off a bucket grid built with the neighbor table
(``neighborhood.DiscGrid``; ``neighborhood.StripDomains`` holds the
strips).
Anything else falls back to a classical search of the whole codebook.  The
index is the distance row's argmin; the stages only simulate and charge the
search, so randomness never affects the index.  This module alone charges
the meter.

Both finishing searches walk their list in projection order on the mean
axis, after Ra and Kim (IEEE TCAS-II, 1993): outward from the input's
projection, nearer side first, until each side's next entry lies farther in
projection than ``kernels.half_width`` of the best distance so far.  The
walk visits the same entries in whatever order it steps: those within
half_width of the row's minimum d*, which hold the argmin (the walk's
proof is in ``finishing_walks``).  So its charge is a count over the
block's strip, two binary searches in the batch, not a per-block loop.  The
paper's charges, h's whole list and all N, stay reported beside it
(``pipeline.PartitionStats.paper_mean_classical_evals``).

``encode`` works on a batch.  One projection-window pass over the distinct
blocks' distances reduces each block to a few facts (``BlockFacts``); equal
blocks share the pass but keep their own draws.  A measured index passes its
classical check exactly when it is marked, so every search round is a coin
with the closed-form success probability, and stage 1 and the stage-2 rounds
run for all blocks at once on those facts.  ``EncodeBatch.meter`` holds this
encoder's charges and ``EncodeBatch.paper`` the paper's configuration's.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import kernels
from .codebook import Codebook, as_rows, check_seed
from .codebook import full_search  # noqa: F401 (perfbench/spans.py wraps it by name)
from .grover import marked_probability
from .grover import marked_set_from_distances, measure  # noqa: F401 (perfbench/spans.py wraps them by name)
from .neighborhood import NeighborhoodTable, sub1_radii

# Factor that grows the stage-2 iteration cutoff m after each failed round
# (Boyer, Brassard, Hoyer and Tapp's lambda, any value in (1, 4/3) works).
BBHT_GROWTH = 6.0 / 5.0

# Stage 2 spends at most ceil(BBHT_BUDGET_FACTOR * sqrt(D)) search iterations
# per vector over a register of D indices (D = 2 W_t, or N in the paper's
# configuration); the schedule alone has no stopping rule when no solution exists.
BBHT_BUDGET_FACTOR = 3.0

# Draw slots (see ``grover.derive_rng``): the stage-1 coin, the marked index a
# stage-2 hit measures, then stage-2 round r's j at slot 2r+2 and coin at 2r+3.
SUB1_SLOT = 0
PICK_SLOT = 1

# ``sub1_table`` takes a domain of W as phase-matched when W sin^2(pi/(4j + 2)) lies
# this far below 1; the product's rounding is near 1e-15, and no W up to 2**20
# but W = 1 and W = 4, where it is exactly 1, lies within 1e-9 of 1
PHASE_MATCH_MARGIN = 1e-12


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
        check_seed(self.master_seed, "master_seed")


@dataclass
class QueryMeter:
    """Operation counters: ints for one block, (M,) int64 arrays for a batch.

    One search iteration = one quantum operation; every charged classical
    distance evaluation counts separately.  Marked-set enumeration inside the
    simulator is never charged (it stands in for the oracle's parallelism).
    ``table_reads`` counts what the finishing walks read of the sorted
    neighbor lists and codebook; it is reported beside the operations, not
    in them.
    """

    grover_iterations: int = 0
    classical_distance_evals: int = 0
    table_reads: int = 0


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
    t_s: np.ndarray  # marked by stage 1: #{i : d_i < sub1_radii[i]}, 0 or 1 (then i is the argmin)
    domain_s: np.ndarray  # stage 1's search domain |S(x)|, from ``NeighborhoodTable.domains``
    domain_t: np.ndarray  # stage 2's window W_t, from ``NeighborhoodTable.domains``
    t: np.ndarray  # marked at delta_hat: #{i : d_i < delta_hat}
    pick: np.ndarray  # the marked index a stage-2 hit measures; -1 if t == 0
    row: np.ndarray  # the block's row among the pass's distinct rows: equal blocks share it


@dataclass(frozen=True, eq=False)
class EncodeBatch(Sequence):
    """Result of one batch encode, block by block in input order.

    A read-only sequence of ``EncodeOutcome``: ``batch[b]`` builds block b's
    outcome, with plain ints, only when asked for; iteration goes through it.
    ``paper`` is the same run charged as the paper's configuration: stage 1
    and stage 2 over all N, h's whole neighbor list after the paper's
    stage-2 hit and all N in its fallback (its ``table_reads`` are 0).
    """

    facts: BlockFacts
    path: np.ndarray  # int8 positions in PATHS
    meter: QueryMeter  # (M,) int64 arrays
    paper: QueryMeter  # (M,) int64 arrays: the paper's charges

    def __len__(self) -> int:
        return self.path.size

    def __getitem__(self, b: int) -> EncodeOutcome:
        b = range(len(self))[operator.index(b)]
        return EncodeOutcome(
            int(self.facts.index[b]),
            PATHS[self.path[b]],
            QueryMeter(
                int(self.meter.grover_iterations[b]),
                int(self.meter.classical_distance_evals[b]),
                int(self.meter.table_reads[b]),
            ),
        )


def sub1_table(top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage 1's (iterations, bias, paper's bias) over a domain of W codevectors, at [W] for W in 0..top.

    Both searches run j = floor(pi/4 * sqrt(W)) iterations.  The paper's
    bias is the plain search's, ``marked_probability(1, W, j)``, one call on
    flat int64 arrays.  The codec's is exactly 1.0 wherever a phase-matched
    search (G. L. Long, Phys. Rev. A 64, 022307, 2001) of the same j
    iterations finds the one marked index with certainty, and the paper's
    elsewhere.  Long's search takes K = floor((pi/2 - beta)/(2 beta)) + 1
    iterations, sin(beta) = 1/sqrt(W), with oracle and diffusion phases
    phi = 2 asin(sin(pi/(4K + 2))/sin(beta)), and succeeds with certainty.
    K = j exactly when (2j + 1) beta > pi/2, that is when
    W sin^2(pi/(4j + 2)) < 1: there the exact search costs no extra
    iteration.  The table decides it with ``PHASE_MATCH_MARGIN`` below 1,
    far beyond the rounding of that product, so the bias of 1.0 is the
    proof's, not a float's.  The paper's stage 1 reads its bias at W = N
    and a block's domain the codec's at its W <= N, so ``sub1_table(N)``
    serves both.  A domain of 0 holds no codevector: no search runs, and
    all three are 0.  W = 1 gives j = 0 and a bias of exactly 1 in both.
    """
    width = np.arange(top + 1, dtype=np.int64)
    iterations = np.floor(math.pi / 4.0 * np.sqrt(width)).astype(np.int64)
    paper = np.zeros(top + 1)
    paper[1:] = marked_probability(np.ones(top, dtype=np.int64), width[1:], iterations[1:])
    matched = (width > 0) & (width * np.sin(np.pi / (4 * iterations + 2)) ** 2 < 1.0 - PHASE_MATCH_MARGIN)
    return iterations, np.where(matched, 1.0, paper), paper


def sub2_budget(n):
    """Stage 2's iteration budget over a domain of n: ceil(BBHT_BUDGET_FACTOR * sqrt(n)), elementwise, int64."""
    return np.ceil(BBHT_BUDGET_FACTOR * np.sqrt(n)).astype(np.int64)


def block_facts(
    vectors: np.ndarray,
    codebook: Codebook,
    table: NeighborhoodTable,
    pick_draw: np.ndarray,
) -> BlockFacts:
    """One window pass over the distinct blocks' distances, kept as ``BlockFacts``.

    ``vectors`` is a finite (M, k) float64 array of the codebook's dimension.
    ``pick_draw`` holds each block's uniform draw in [0, 1) for the marked
    index a stage-2 hit measures, ``BlockFacts.pick``: the one at position
    floor(pick_draw * t) of the t marked indices in ascending order, uniform
    among them.  The pass is one
    ``kernels.window_marked`` call over ``kernels.distinct_rows(vectors)`` at
    radius delta_hat: each row's window holds every codevector within
    max(delta_hat, its nearest distance), so the facts equal the full row's.
    Equal blocks share their row's facts and marked set, but each picks from
    it with its own draw.  No M x N matrix is kept.

    Each row's two search domains, stage 1's S(x) (``BlockFacts.domain_s``)
    and stage 2's window (``BlockFacts.domain_t``), are one call of the
    table's ``NeighborhoodTable.domains``, strips or disc-grid cells, whose
    class holds the proof that they hold every index either stage can mark.
    """
    distinct, inverse = kernels.distinct_rows(vectors)
    proj, order = kernels.projection_order(distinct)
    index, nearest, marked, start, t = kernels.window_marked(distinct, codebook.vectors, table.delta_hat, (proj, order))
    block_t = t[inverse]
    k = np.minimum((pick_draw * block_t).astype(np.int64), block_t - 1)
    picked = np.full(vectors.shape[0], -1, dtype=np.int64)
    if marked.size:  # a block with t = 0 reads a clipped position, then gets -1
        picked = np.where(block_t > 0, marked.take(start[inverse] + k, mode="clip"), picked)
    radii = sub1_radii(codebook)
    # only the argmin can lie below its own radius, and then it is the one marked codevector
    t_s = (nearest < radii[index]).astype(np.int64)
    domain_s, domain_t = table.domains.counts(distinct, proj, order)
    return BlockFacts(
        index=index[inverse],
        nearest=nearest[inverse],
        t_s=t_s[inverse],
        domain_s=domain_s[inverse],
        domain_t=domain_t[inverse],
        t=block_t,
        pick=picked,
        row=inverse,
    )


def encode_sub1(t_s: np.ndarray, domain, u: np.ndarray, table, meter: QueryMeter) -> np.ndarray:
    """Stage 1 for every block: one amplified search below each codevector's radius, then one verification.

    The marked set is {i : d(x, c_i) < ``sub1_radii``[i]}, ``t_s``
    elements per block, 0 or 1, and the search runs over a domain of
    ``domain`` codevectors that holds it: each block's S(x) (an (M,) array
    of ``BlockFacts.domain_s``) or all N (one int).  ``u`` is each block's
    SUB1_SLOT draw and ``table`` is two of ``sub1_table``'s columns,
    (iterations, bias) with the codec's bias or (iterations, paper's bias),
    long enough for every domain.  ``meter`` is charged the table's
    iterations at the domain and one evaluation when the domain is not
    empty.  Returns the mask of blocks whose measured index is marked, i.e.
    verified strictly below its own radius (it is then the unique global
    optimum); at t_s = 0 no draw passes, and at a bias of 1.0 every marked
    block does.
    """
    iterations, bias = table
    meter.grover_iterations += iterations.take(domain)
    meter.classical_distance_evals += np.minimum(domain, 1)
    return (t_s == 1) & (u < bias.take(domain))


def success_table(levels: np.ndarray, domains) -> np.ndarray:
    """``marked_probability(levels[a], domains[a], j)`` at [a, j]: the coin bias of stage 2's rounds.

    ``levels`` holds marked counts t and ``domains`` search domains D >= 1
    (int64 arrays of one shape, or one int D for every level); j runs over
    0..floor(sqrt(max D)), every j a stage-2 round can draw.  The table is
    one ``marked_probability`` call, t and D as a column against j as a
    row, elementwise as a call on the blocks' own arrays would make it, and
    holds the same bits.
    """
    levels, domains = np.broadcast_arrays(levels, np.asarray(domains, dtype=np.int64))
    width = math.isqrt(int(domains.max())) + 1
    return marked_probability(levels[:, None], domains[:, None], np.arange(width, dtype=np.int64))


def encode_sub2(t: np.ndarray, searches, draw) -> list[np.ndarray]:
    """Randomized-cutoff search rounds for every search in ``searches``, all in lockstep.

    Each search is a triple (blocks, domain, meter): the distinct ordinals
    of the blocks it runs for, the size D >= 1 of each one's search register
    (an array aligned with ``blocks``, or one int for all of them), and the
    ``QueryMeter`` it charges.  ``t`` holds every block's marked count at
    delta_hat; the register holds the t marked indices and D - t unmarked
    ones.

    Round r draws each live block's j uniformly from {0..floor(m)}, with
    m = min(BBHT_GROWTH**r, sqrt(D)) for its own D, charges the j
    iterations and one verification, and accepts the block when its coin
    lands on the marked set (the measured index h, ``BlockFacts.pick``,
    then verifies below delta_hat).  The scan that finishes an accepted
    block is charged after the rounds, by ``finishing_walks``.  The budget,
    ``sub2_budget(D)``, is the only stopping rule: a block whose next draw
    would push its iteration total past it leaves unaccepted (caller falls
    back).  Every round draws j >= 1 with probability at least 1/2, so the
    rounds end with probability 1.

    All searches read round r's two draw slots, 2r + 2 for j and 2r + 3 for
    the coin, from one ``draw`` call each: ``draw(slot)`` returns one
    uniform draw in [0, 1) per block of the batch.  A block in two searches
    reads the same draws in both.  The rounds carry compact arrays over the
    live (search, block) pairs only.  All have run the same r rounds, so
    each round settles in one step: a leaver is charged r verifications and
    its iterations before this j, a hit r + 1 and all of them.  The coin's
    bias is ``success_table``'s over the searches' distinct (D, t) pairs.
    Returns each search's mask of accepted blocks over the whole batch.
    """
    parts = [np.asarray(blocks, dtype=np.int64) for blocks, _, _ in searches]
    block = np.concatenate(parts)  # each live pair's block
    if not block.size:
        return [np.zeros(t.size, dtype=bool) for _ in searches]
    search = np.repeat(np.arange(len(parts), dtype=np.int8), [b.size for b in parts])  # and its search
    domain = np.concatenate([np.broadcast_to(np.int64(d), b.shape) for b, (_, d, _) in zip(parts, searches)])
    span = int(t.max()) + 1
    keys, row = np.unique(domain * span + t[block], return_inverse=True)
    domains = keys // span
    table = success_table(keys % span, domains)
    chance, cell = table.ravel(), row * table.shape[1]  # each live pair's row of ``chance``
    top = np.floor(np.sqrt(domains)).astype(np.int64) + 1  # floor(sqrt(D)) + 1: the cutoff's cap
    cap, budget, ceiling = top[row], sub2_budget(domains)[row], math.sqrt(int(domains[-1]))
    spent = np.zeros(block.size, dtype=np.int64)
    settled = []  # each round's settled pairs: (block, search, iterations, verifications, hit)
    m = 1.0  # BBHT_GROWTH**r up to the largest sqrt(D), as floor(min(m, sqrt D)) = min(floor(m), floor(sqrt D))
    r = 0
    while block.size:
        cutoff = np.minimum(cap, math.floor(m) + 1)
        # u < 1 keeps floor(u * cutoff) below cutoff in floating point too, so j <= cutoff - 1
        j = (draw(2 * r + 2).take(block) * cutoff).astype(np.int64)
        spent += j
        over = spent > budget
        done = draw(2 * r + 3).take(block) < chance.take(cell + j)
        done |= over
        settle = np.flatnonzero(done)
        if settle.size:
            left = over[settle]  # the settled pairs that leave on the budget; the others hit
            settled.append((block[settle], search[settle], spent[settle] - j[settle] * left, r + ~left, ~left))
            stay = np.flatnonzero(~done)
            live = (block, search, spent, cell, cap, budget)
            block, search, spent, cell, cap, budget = (a.take(stay) for a in live)
        m = min(BBHT_GROWTH * m, ceiling)
        r += 1
    block, search, iterations, evals, hit = (np.concatenate(column) for column in zip(*settled))
    masks = []
    for s, (_, _, meter) in enumerate(searches):
        mine = search == s
        gone = block[mine]  # a search's blocks are distinct, so each is written once
        meter.grover_iterations[gone] += iterations[mine]
        meter.classical_distance_evals[gone] += evals[mine]
        accepted = np.zeros(t.size, dtype=bool)
        accepted[gone[hit[mine]]] = True
        masks.append(accepted)
    return masks


def finishing_walks(
    vectors: np.ndarray,
    facts: BlockFacts,
    codebook: Codebook,
    table: NeighborhoodTable,
    accepted: np.ndarray,
    fallback: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The charges of the walks that finish stage-2 hits and fallbacks: (evals, reads), (M,) int64.

    Each walk is the mean-ordered partial search of Ra and Kim (IEEE
    TCAS-II, 1993) over a list in projection order (``kernels.projections``):
    h's neighbor list for a block in ``accepted``, the whole codebook for one
    in ``fallback``.  It locates p(x) by binary search, then steps outward
    on two sides, always to the side whose next entry is nearer in
    projection.  Each visited entry is evaluated, except h, whose distance
    the verification gave, and the best distance so far is kept (from
    d(x, h) after a hit, from infinity in a fallback).  A side closes at its
    first entry outside [p(x) - w, p(x) + w], w = ``kernels.half_width``
    (best) with ``Codebook.norm_scale`` for its norm, which no later entry
    on that side can be inside, as best only falls.

    The walk visits exactly the entries inside the strip of w* = half_width
    (d*), d* the row's minimum ``facts.nearest``, in any order of its steps.
    By ``half_width``'s proof, the argmin j*'s computed gap lies 2g (d* + s)
    inside w*, room for the rounding of the strip's ends, so every entry
    whose computed gap is at most j*'s lies inside the strip.  Before
    j* is visited, every visited entry is no farther in projection than j*
    (the walk takes the nearer side, and j*'s side runs towards j*), so
    inside the strip; j*'s side cannot close, since its entries up to j*
    lie between p(x) and j*; once j* is visited, best is d*.  So the walk
    reaches j*, in h's list by ``neighborhood.neighbor_radius``, and every
    codevector at d* with it: its minimum, ties to the smallest index, is
    the row's.  At every step best is a visited codevector's computed
    distance, as the proof needs, and the half-width grows with best, so
    the argument above holds, and the final strip is the one at d*.  So a
    block's charge depends on that block and the codebook alone, never on
    the other blocks.

    The charge depends only on the block's row and the list it walks, so
    it is computed once per distinct (row, list) pair, a fallback's list
    being the codebook's own projection order.  It is read off the pair's
    strip: the positions [lo, hi) of ``Codebook.axis`` in it (two
    ``searchsorted`` calls); a fallback's entries are those positions, and a
    hit's are h's keys in [h N + lo, h N + hi) (two more), less h when h
    lies in the strip, since each key ranks its member by its axis position.

    ``reads`` counts each walk's binary-search locate, bit_length of its
    list's size, plus every entry it reads: those it visits, h included,
    and the entry that closes each side, if the side has one.
    """
    evals = np.zeros(facts.t.size, dtype=np.int64)
    reads = np.zeros(facts.t.size, dtype=np.int64)
    n = codebook.n
    walked = np.flatnonzero(accepted | fallback)
    # the list a block walks: h's after a hit, the whole codebook (owner N) in a fallback
    owner = np.where(accepted[walked], facts.pick[walked], n)
    r = facts.row.max(initial=0) + 1
    pairs, back = np.unique(owner * r + facts.row[walked], return_inverse=True)
    # one block per pair: equal rows have equal vectors and nearest, so any one gives the charge
    block = np.empty(pairs.size, dtype=np.int64)
    block[back] = walked
    half = kernels.half_width(facts.nearest[block], codebook.k, codebook.norm_scale)
    p = kernels.projections(np.take(vectors, block, axis=0))
    low, high = p - half, p + half
    # a fallback's entries are the codebook's positions in the strip [a, b)
    a = np.searchsorted(codebook.axis, low, side="left")
    b = np.searchsorted(codebook.axis, high, side="right")
    first, size, known = np.zeros_like(a), np.full_like(a, n), np.zeros_like(a)
    # a hit's are h's keys, [h * N, (h + 1) * N) in projection order, with positions in [a, b);
    # the pairs are sorted, so the hits' (owner h < N) come first
    hit = slice(np.searchsorted(pairs, n * r))
    h = pairs[hit] // r
    a[hit] = np.searchsorted(table.keys, h * n + a[hit])
    b[hit] = np.searchsorted(table.keys, h * n + b[hit])
    first[hit] = (np.cumsum(table.count) - table.count)[h]  # where h's keys begin
    size[hit] = table.count[h]
    own = codebook.projections[h]
    known[hit] = (low[hit] <= own) & (own <= high[hit])
    evals[walked] = (b - a - known)[back]
    # a binary search over L sorted entries reads bit_length(L) of them, frexp(L)[1]
    reads[walked] = (np.frexp(size)[1] + (b - a) + (a > first) + (b < first + size))[back]
    return evals, reads


def encode(
    vectors: np.ndarray,
    codebook: Codebook,
    table: NeighborhoodTable,
    draw,
) -> EncodeBatch:
    """Full hybrid encode of a batch: stage 1, then stage 2, then classical fallback.

    ``vectors`` must pass ``as_rows`` at the codebook's dimension and
    ``table`` hold one list per codevector, both checked before any draw.
    ``draw(slot)`` returns one uniform draw in [0, 1) per block for each
    slot.  Stage 2 runs at the table's delta_hat.  Each block's index is the
    argmin of its distance row, ties to the smallest index, whichever stage
    accepts; the stages decide only the path and what the meter is charged.
    Stage-2 hits and fallbacks are then charged their ``finishing_walks``.

    Stage 1 searches each block's S(x) (``BlockFacts.domain_s``).  Stage 2
    searches each block's window of W_t codevectors
    (``BlockFacts.domain_t``), which holds its t marked indices, padded with
    W_t dummies the oracle never marks: a register of D = 2 W_t, so that
    t/D <= 1/2, inside the t <= 3D/4 that Boyer, Brassard, Hoyer and Tapp's
    bound assumes.  A block with W_t = 0 has t = 0: it skips the rounds and
    falls back.  Stage 1's lookup is charged for every block, and stage 2's
    for each block that enters stage 2: ``NeighborhoodTable.domains``' reads
    (``neighborhood.space_bits`` counts the entries they read).

    The paper's configuration is simulated beside it on the same draws
    (``EncodeBatch.paper``): ``encode_sub1`` runs once over each block's
    S(x) with the codec's bias and once over all N with the paper's,
    reading one ``sub1_table(N)`` with the same SUB1_SLOT draw, and the
    paper's stage 2 searches all N for the blocks its own stage 1 did not
    pass.  One ``encode_sub2`` call runs both configurations' rounds, on
    the same round draws.
    """
    vectors = as_rows(vectors, codebook.k)
    if table.n != codebook.n:
        raise ValueError(f"neighborhood table has {table.n} lists, codebook has {codebook.n} codevectors")
    facts = block_facts(vectors, codebook, table, draw(PICK_SLOT))
    size, n = vectors.shape[0], codebook.n
    meter, paper = (QueryMeter(*(np.zeros(size, dtype=np.int64) for _ in range(3))) for _ in range(2))
    u, (iterations, bias, paper_bias) = draw(SUB1_SLOT), sub1_table(n)
    sub1 = encode_sub1(facts.t_s, facts.domain_s, u, (iterations, bias), meter)
    paper_sub1 = encode_sub1(facts.t_s, n, u, (iterations, paper_bias), paper)
    meter.table_reads += table.domains.reads(~sub1)
    searched = np.flatnonzero(~sub1 & (facts.domain_t > 0))
    sub2, paper_sub2 = encode_sub2(
        facts.t,
        ((searched, 2 * facts.domain_t[searched], meter), (np.flatnonzero(~paper_sub1), n, paper)),
        draw,
    )
    fallback = ~(sub1 | sub2)
    # the masks are disjoint and cover the batch: a sum of products, far cheaper than masked assignments
    masks = {EncodePath.SUB1: sub1, EncodePath.SUB2: sub2, EncodePath.CLASSICAL_FALLBACK: fallback}
    path = sum(masks[p].view(np.int8) * np.int8(i) for i, p in enumerate(PATHS))
    evals, reads = finishing_walks(vectors, facts, codebook, table, sub2, fallback)
    meter.classical_distance_evals += evals
    meter.table_reads += reads
    # the paper's scans: h's whole list after a stage-2 hit, all N (entry -1) in a fallback
    whole = np.append(table.sizes(), n)[facts.pick * paper_sub2 - ~paper_sub2]
    paper.classical_distance_evals += whole * ~paper_sub1
    return EncodeBatch(facts=facts, path=path, meter=meter, paper=paper)


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


def delta_hat_from_nearest(nearest, delta0: float, percentile: float) -> float:
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

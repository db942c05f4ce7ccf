"""Plain-Python per-block reference for the batch encoder.

It walks one block at a time through stage 1, the stage-2 rounds and the
fallback, reading the block's distance row and its own draw for each slot:
slot 0 is the stage-1 coin, slot 1 the marked pick, and slots 2r+2 and 2r+3
the iteration count j and the coin of stage-2 round r.  Stage 1 searches
S(x), the codevectors whose own interval holds the block's projection
(``stage1_domain``, a literal scan of every codevector), with the certain
coin of the phase-matched search wherever Long's iteration count is the
plain one (``stage1_chance``).  Stage 2 searches a register of twice its
window, found by a literal scan of the projections (``stage2_window``).  A
stage-2 hit and a fallback are finished by
``projection_walk``, a literal sequential walk.  ``reference_encode``
returns plain ints, and the batch must give every block the same ones
(``batch_rows``) when fed the same draws, and the same charges as
``reference_encode(..., paper=True)`` in its paper's meter
(``meter_rows``).  ``run_stage`` runs one batch stage alone on the same
draws.
"""

import math
from bisect import bisect_left

import numpy as np

from hqvq import kernels
from hqvq.codebook import distances_to_codebook
from hqvq.encoder import (
    BBHT_GROWTH,
    PICK_SLOT,
    PATHS,
    SUB1_SLOT,
    EncodePath,
    QueryMeter,
    block_facts,
    encode_sub1,
    encode_sub2,
    sub1_radii,
    sub1_table,
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


def batch_meter(size: int) -> QueryMeter:
    """A zeroed meter of three (size,) int64 arrays, as ``encode`` starts one."""
    return QueryMeter(*(np.zeros(size, dtype=np.int64) for _ in range(3)))


def meter_rows(meter: QueryMeter) -> list[tuple[int, int, int]]:
    """A batch meter's (iterations, evaluations, reads) for each block, as plain ints."""
    counters = (meter.grover_iterations, meter.classical_distance_evals, meter.table_reads)
    return list(zip(*(c.tolist() for c in counters)))


def batch_rows(batch) -> list[tuple[int, int, int, int, int]]:
    """Each block's (index, path position, iterations, evaluations, reads), as ``reference_encode`` returns it."""
    heads = zip(batch.facts.index.tolist(), batch.path.tolist())
    return [head + charges for head, charges in zip(heads, meter_rows(batch.meter))]


def sub1_iterations(w: int) -> int:
    """Stage 1's iteration count over a domain of w codevectors: floor(pi/4 * sqrt(w))."""
    return math.floor(math.pi / 4.0 * math.sqrt(w))


def run_stage(stage: int, rows, cb, table, seed: int, paper: bool = False):
    """Run batch stage 1 or 2 alone on every row, with the rows' draws keyed by ``seed``.

    Returns (facts, accepted mask, meter with only that stage's charges).
    Each stage runs as ``encode`` runs it, over each row's own domain
    (charged its lookup's reads) and over all N, on the same draws; it
    returns the codec's, or with ``paper`` the paper's over all N.  Stage 2 searches
    every row, not only those stage 1 fails, and its window's register is
    twice the window, W_t = 0 running no round.
    """
    rows = np.asarray(rows, dtype=np.float64)
    size = rows.shape[0]
    draw = seeded_draws(seed, size)
    facts = block_facts(rows, cb, table, draw(PICK_SLOT))
    meter, paper_meter = batch_meter(size), batch_meter(size)
    if stage == 1:
        u, (iterations, bias, paper_bias) = draw(SUB1_SLOT), sub1_table(cb.n)
        accepted = encode_sub1(facts.t_s, facts.domain_s, u, (iterations, bias), meter)
        meter.table_reads += stage1_reads(cb.n)
        paper_accepted = encode_sub1(facts.t_s, cb.n, u, (iterations, paper_bias), paper_meter)
    else:
        searched = np.flatnonzero(facts.domain_t > 0)
        meter.table_reads += 2 * cb.n.bit_length()
        accepted, paper_accepted = encode_sub2(
            facts.t, ((searched, 2 * facts.domain_t[searched], meter), (np.arange(size), cb.n, paper_meter)), draw
        )
    if paper:
        return facts, paper_accepted, paper_meter
    return facts, accepted, meter


def stage1_reads(n: int) -> int:
    """Stage 1's lookup: one binary search over the 2N sorted interval ends, bit_length(2N), and the piece's count."""
    return (2 * n).bit_length() + 1


def long_iterations(w: int) -> int:
    """Long's phase-matched iteration count over w >= 2 indices, one marked: floor((pi/2 - beta)/(2 beta)) + 1.

    sin(beta) = 1/sqrt(w); with oracle and diffusion phases
    2 asin(sin(pi/(4K + 2))/sin(beta)) the search finds the marked index
    with certainty (G. L. Long, Phys. Rev. A 64, 022307, 2001).
    """
    beta = math.asin(1.0 / math.sqrt(w))
    return math.floor((math.pi / 2.0 - beta) / (2.0 * beta)) + 1


def stage1_chance(t_s: int, w: int, j: int) -> float:
    """Stage 1's coin over a domain of w: 1 for a marked block where Long's count is j, else ``success_chance``."""
    if t_s == 1 and w >= 2 and long_iterations(w) == j:
        return 1.0
    return success_chance(t_s, w, j)


def success_chance(t: int, n: int, j: int) -> float:
    """``marked_probability`` for one block, computed on 1-element arrays as the batch does.

    numpy rounds the 0-d path differently from the array path in the last bit
    (at (t, n, j) = (5, 7, 3)), so a scalar call could flip a coin the batch
    does not.
    """
    return float(marked_probability(np.array([t]), n, np.array([j]))[0])


def reference_half_width(reach: float, codebook) -> float:
    """The strip margin reach + 4g (reach + (norm + 2 reach)), written out apart from ``kernels.half_width``.

    g is ``kernels.rounding_bound(k)`` and norm ``Codebook.norm_scale``; a
    window or walk whose reach is a computed distance to some codevector
    holds every codevector within that reach.
    """
    g = kernels.rounding_bound(codebook.k)
    return reach + 4.0 * g * (reach + (codebook.norm_scale + 2.0 * reach))


def projection_walk(x, codebook, entries, dvec, known=None):
    """Ra and Kim's walk over ``entries`` outward from x's projection, one entry at a time.

    ``entries`` are codevector indices; the walk sorts them into projection
    order, locates p(x) by binary search, then always steps to the side
    whose next entry has the smaller gap |p(x) - p(c)| (the left one on a
    tie).  A side closes at its first entry outside
    p(x) -+ ``reference_half_width(best)``, best being the smallest distance
    so far.  Each visited entry is evaluated, except ``known``, whose
    distance the caller already has (best then starts at it, else at
    infinity).  Returns (argmin, evaluations, reads): the argmin over the
    visited entries, ties to the smallest index; reads count the locate's
    probes, bit_length(len(entries)), and every entry looked at, the two
    that close the sides included.
    """
    rows = np.asarray([x], dtype=np.float64)
    p = float(kernels.projections(rows)[0])
    proj = codebook.projections
    order = sorted(entries, key=lambda j: (float(proj[j]), j))
    values = [float(proj[j]) for j in order]
    best, arg = (float(dvec[known]), known) if known is not None else (math.inf, None)
    evals, reads = 0, len(order).bit_length()
    right = bisect_left(values, p)
    left = right - 1
    while left >= 0 or right < len(order):
        go_left = right >= len(order) or (left >= 0 and p - values[left] <= values[right] - p)
        side = left if go_left else right
        w = reference_half_width(best, codebook)
        reads += 1
        if (values[side] < p - w) if go_left else (values[side] > p + w):
            if go_left:  # the side closes
                left = -1
            else:
                right = len(order)
            continue
        j = order[side]
        if j != known:
            evals += 1
            d = float(dvec[j])
            if arg is None or (d, j) < (best, arg):
                best, arg = d, j
        if go_left:
            left -= 1
        else:
            right += 1
    return arg, evals, reads


def reference_pick(dvec, table, u):
    """The marked index a stage-2 hit measures: position floor(u(1) * t) of the t marked ones; None if t == 0."""
    marked = [i for i, d in enumerate(dvec) if d < table.delta_hat]
    t = len(marked)
    return marked[min(int(u(PICK_SLOT) * t), t - 1)] if t else None


def reference_window(x, codebook, half: float) -> int:
    """How many codevectors' projections lie within ``half`` of p(x): a literal scan, both ends inclusive.

    Stage 2's window is the one at ``reference_half_width(delta_hat)``
    (``stage2_window``); at the largest ``sub1_radii`` it is the one strip
    that bounds every S(x).
    """
    p = float(kernels.projections(np.asarray([x], dtype=np.float64))[0])
    return sum(1 for c in codebook.projections.tolist() if p - half <= c <= p + half)


def stage1_domain(x, codebook) -> list[int]:
    """S(x): the ascending i with p(c_i) - w_i <= p(x) <= p(c_i) + w_i, w_i = ``reference_half_width(r_i)``.

    r_i is ``sub1_radii``[i]: each codevector's interval on the mean axis
    is its own, found by a literal scan of every codevector.
    """
    p = float(kernels.projections(np.asarray([x], dtype=np.float64))[0])
    members = []
    for i, (c, r) in enumerate(zip(codebook.projections.tolist(), sub1_radii(codebook).tolist())):
        w = reference_half_width(r, codebook)
        if c - w <= p <= c + w:
            members.append(i)
    return members


def stage2_window(x, codebook, table) -> int:
    """Stage 2's window W_t for x: ``reference_window`` at ``reference_half_width(delta_hat)``."""
    return reference_window(x, codebook, reference_half_width(table.delta_hat, codebook))


def reference_encode(x, codebook, table, u, paper: bool = False) -> tuple[int, int, int, int, int]:
    """Encode one block x; ``u(slot)`` is its draw for the slot.

    Returns (index, path, iterations, evaluations, reads), plain ints, the
    path as its position in ``PATHS``.  Stage 1 searches x's
    ``stage1_domain`` with ``stage1_chance``'s coin, stage 2 a register of
    twice its ``stage2_window`` (no round when that is empty), and a
    stage-2 hit or a fallback is finished by ``projection_walk``.  Stage
    1's lookup reads ``stage1_reads`` entries, stage 2's window's
    2 bit_length(N).  With ``paper`` the block is charged as the paper's
    configuration instead: both stages over all N with the plain search's
    coin, h's whole list after a hit, all N in a fallback, and no table
    reads.
    """
    dvec = [float(d) for d in distances_to_codebook(x, codebook)]
    n = len(dvec)
    index = min(range(n), key=lambda i: (dvec[i], i))
    meter = QueryMeter()

    t_s = sum(1 for d, r in zip(dvec, sub1_radii(codebook)) if d < r)
    if paper:
        domain = n
    else:
        members = stage1_domain(x, codebook)
        assert t_s == 0 or index in members  # S(x) holds every index stage 1 can mark
        domain = len(members)
        meter.table_reads += stage1_reads(n)
    if domain:  # an empty domain holds nothing to search
        j = sub1_iterations(domain)
        meter.grover_iterations += j
        meter.classical_distance_evals += 1
        if u(0) < (success_chance(t_s, domain, j) if paper else stage1_chance(t_s, domain, j)):
            return plain(index, EncodePath.SUB1, meter)
    if paper:
        domain = n
    else:
        meter.table_reads += 2 * n.bit_length()
        domain = 2 * stage2_window(x, codebook, table)
        assert domain >= 2 * sum(1 for d in dvec if d < table.delta_hat)  # the window holds every marked index
    if domain and reference_stage2(dvec, table, u, meter, domain):
        h = reference_pick(dvec, table, u)
        arg, evals, reads = projection_walk(x, codebook, table.neighbors(h), dvec, known=h)
        if paper:
            evals, reads = len(table.neighbors(h)), 0
        path = EncodePath.SUB2
    else:
        arg, evals, reads = projection_walk(x, codebook, range(n), dvec)
        if paper:
            evals, reads = n, 0
        path = EncodePath.CLASSICAL_FALLBACK
    assert arg == index
    meter.classical_distance_evals += evals
    meter.table_reads += reads
    return plain(index, path, meter)


def plain(index: int, path: EncodePath, meter: QueryMeter) -> tuple[int, int, int, int, int]:
    """``reference_encode``'s result: the index, the path's position in ``PATHS`` and the three counters."""
    return (index, PATHS.index(path), meter.grover_iterations, meter.classical_distance_evals, meter.table_reads)


def reference_stage2(dvec, table, u, meter: QueryMeter, n: int, rounds: list | None = None) -> bool:
    """Stage 2's rounds alone for one block over a register of n indices: charge ``meter``, return whether one hit.

    The register holds the block's t marked indices: n is N, or twice the
    block's window, whose other entries are never marked.  ``rounds``, when
    given, gets the j of every round that ran, in order.  The scan that
    finishes a hit is ``projection_walk``'s, charged apart.
    """
    t = sum(1 for d in dvec if d < table.delta_hat)
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
            return True
        m = min(BBHT_GROWTH * m, math.sqrt(n))
        r += 1

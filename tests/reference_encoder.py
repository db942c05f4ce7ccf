"""Plain-Python per-block reference for the batch encoder.

It walks one block at a time through stage 1, the stage-2 rounds and the
fallback, reading the block's distance row and its own draw for each slot:
slot 0 is the stage-1 coin, slot 1 the marked pick, and slots 2r+2 and 2r+3
the iteration count j and the coin of stage-2 round r.  Stage 1 searches
S(x), the codevectors whose own interval holds the block's projection
(``stage1_domain``, a literal scan of every codevector), with the certain
coin of the phase-matched search wherever Long's iteration count is the
plain one (``stage1_chance``).  Stage 2 searches a register of twice its
window, found by a literal scan of the projections (``stage2_window``).
Where the table's domains are a ``DiscGrid`` (k >= 3 on a finite plane),
both are the codevectors whose discs meet the block's grid cell instead,
found by a literal scan of every codevector against that one cell
(``grid_members``).  A stage-2 hit and a fallback are finished by
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
from hqvq.neighborhood import DiscGrid


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
        meter.table_reads += lookup_reads(table)[0]
        paper_accepted = encode_sub1(facts.t_s, cb.n, u, (iterations, paper_bias), paper_meter)
    else:
        searched = np.flatnonzero(facts.domain_t > 0)
        meter.table_reads += lookup_reads(table)[1]
        accepted, paper_accepted = encode_sub2(
            facts.t, ((searched, 2 * facts.domain_t[searched], meter), (np.arange(size), cb.n, paper_meter)), draw
        )
    if paper:
        return facts, paper_accepted, paper_meter
    return facts, accepted, meter


def stage1_reads(n: int) -> int:
    """Stage 1's lookup for k <= 2: a binary search over the 2N sorted interval ends, bit_length(2N), and a count."""
    return (2 * n).bit_length() + 1


def lookup_reads(table) -> tuple[int, int]:
    """(stage 1's, stage 2's) lookup reads: one read of the block's cell each in a ``DiscGrid``.

    On strips they are ``stage1_reads`` and two binary searches over the N
    projections, 2 bit_length(N).
    """
    if isinstance(table.domains, DiscGrid):
        return 1, 1
    return stage1_reads(table.n), 2 * table.n.bit_length()


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


def grid_pad(codebook, table) -> float:
    """The radius pad of ``table.domains``' cell test, in cells: 32u B, written out apart from ``disc_grid``.

    u = 2**-53 and B is the largest disc centre's cell coordinate, on
    either axis, plus the largest disc radius in cells, plus 2.
    """
    grid = table.domains
    centers = [(c - origin) / grid.side for values, origin in grid_points(codebook, grid) for c in values]
    sub1 = max(reference_half_width(r, codebook) for r in sub1_radii(codebook).tolist()) / grid.side
    sub2 = reference_half_width(table.delta_hat, codebook) / grid.side
    return 32.0 * 2.0**-53 * (max(centers) + max(sub1, sub2) + 2.0)


def grid_points(codebook, grid):
    """Each axis's codevector coordinates as floats, with the grid's origin on that axis."""
    return (
        (codebook.projections.tolist(), grid.origin_p),
        (kernels.split_projections(codebook.vectors).tolist(), grid.origin_q),
    )


def grid_members(x, codebook, table) -> tuple[list[int], list[int]]:
    """The ascending codevectors counted in x's cell of the table's ``DiscGrid``: (stage 1's, stage 2's).

    x's cell is the floor of its cell coordinates, (p(x) - origin) / side on
    each axis (``cell_members`` lists it); outside the grid nothing counts.
    """
    grid = table.domains
    rows = np.asarray([x], dtype=np.float64)
    coordinates = (kernels.projections(rows)[0], grid.origin_p), (kernels.split_projections(rows)[0], grid.origin_q)
    cell = [(float(v) - origin) / grid.side for v, origin in coordinates]
    if not all(math.isfinite(c) for c in cell):
        return [], []
    a, b = math.floor(cell[0]), math.floor(cell[1])
    cols, height = grid.sub1.shape
    if not (grid.low_p <= a < grid.low_p + cols and grid.low_q <= b < grid.low_q + height):
        return [], []
    return cell_members(a, b, codebook, table)


def cell_members(a: int, b: int, codebook, table) -> tuple[list[int], list[int]]:
    """The ascending codevectors whose stage-1 and stage-2 discs meet cell (a, b) of the table's ``DiscGrid``.

    Codevector i's disc is centred at its own cell coordinates with radius
    ``reference_half_width`` of r_i (stage 1) or of delta_hat (stage 2)
    over the side, plus ``grid_pad``, and meets the cell as the grid's test
    has it: its columns run from floor(c_p - R) to floor(c_p + R), and in
    column a its rows from floor(c_q - h) to floor(c_q + h),
    h = sqrt(R^2 - gap^2) with gap the distance from c_p to [a, a + 1].  A
    literal scan of every codevector against one cell, the brute-force form
    of the grid's column-interval difference arrays.
    """
    grid = table.domains
    pad = grid_pad(codebook, table)
    (ps, origin_p), (qs, origin_q) = grid_points(codebook, grid)
    reaches = (sub1_radii(codebook).tolist(), [table.delta_hat] * codebook.n)
    members = ([], [])
    for i, (p, q) in enumerate(zip(ps, qs)):
        cp, cq = (p - origin_p) / grid.side, (q - origin_q) / grid.side
        for stage, reach in enumerate(reaches):
            r = reference_half_width(reach[i], codebook) / grid.side + pad
            if not math.floor(cp - r) <= a <= math.floor(cp + r):
                continue
            gap = max(max(a - cp, cp - (a + 1.0)), 0.0)
            chord = math.sqrt(max(r * r - gap * gap, 0.0))
            if math.floor(cq - chord) <= b <= math.floor(cq + chord):
                members[stage].append(i)
    return members


def grid_strips(x, codebook, table) -> tuple[int, int]:
    """Bounds of x's two ``grid_members`` counts: strips on the mean axis one cell side wider than each stage's.

    The codevectors whose projection lies within ``reference_half_width``
    of r_i (stage 1) or of delta_hat (stage 2), plus 1.001 sides, of p(x):
    a disc counted in x's cell has its column run reach x's column, so
    its centre lies less than its radius plus one side from p(x), up to
    the pad.  A strip of today's width alone can count fewer: the cell
    reaches past the block.
    """
    side = 1.001 * table.domains.side
    p = float(kernels.projections(np.asarray([x], dtype=np.float64))[0])
    sub1 = sum(
        1
        for c, r in zip(codebook.projections.tolist(), sub1_radii(codebook).tolist())
        if abs(p - c) <= reference_half_width(r, codebook) + side
    )
    return sub1, reference_window(x, codebook, reference_half_width(table.delta_hat, codebook) + side)


def stage2_window(x, codebook, table) -> int:
    """Stage 2's window W_t for x: ``reference_window`` at ``reference_half_width(delta_hat)``."""
    return reference_window(x, codebook, reference_half_width(table.delta_hat, codebook))


def reference_encode(x, codebook, table, u, paper: bool = False) -> tuple[int, int, int, int, int]:
    """Encode one block x; ``u(slot)`` is its draw for the slot.

    Returns (index, path, iterations, evaluations, reads), plain ints, the
    path as its position in ``PATHS``.  Stage 1 searches x's
    ``stage1_domain`` with ``stage1_chance``'s coin, stage 2 a register of
    twice its ``stage2_window`` (no round when that is empty), or on a
    ``DiscGrid`` the two lists of ``grid_members``, and a stage-2 hit or a
    fallback is finished by ``projection_walk``.  The lookups read
    ``lookup_reads`` entries.  With ``paper`` the block is charged as the paper's
    configuration instead: both stages over all N with the plain search's
    coin, h's whole list after a hit, all N in a fallback, and no table
    reads.
    """
    dvec = [float(d) for d in distances_to_codebook(x, codebook)]
    n = len(dvec)
    index = min(range(n), key=lambda i: (dvec[i], i))
    meter = QueryMeter()

    t_s = sum(1 for d, r in zip(dvec, sub1_radii(codebook)) if d < r)
    marked = [i for i, d in enumerate(dvec) if d < table.delta_hat]
    if isinstance(table.domains, DiscGrid):
        members = grid_members(x, codebook, table)
        assert set(marked) <= set(members[1])  # the stage-2 list holds every marked index
        members = members[0], len(members[1])
    else:
        members = stage1_domain(x, codebook), stage2_window(x, codebook, table)
    if paper:
        domain = n
    else:
        assert t_s == 0 or index in members[0]  # S(x) holds every index stage 1 can mark
        domain = len(members[0])
        meter.table_reads += lookup_reads(table)[0]
    if domain:  # an empty domain holds nothing to search
        j = sub1_iterations(domain)
        meter.grover_iterations += j
        meter.classical_distance_evals += 1
        if u(0) < (success_chance(t_s, domain, j) if paper else stage1_chance(t_s, domain, j)):
            return plain(index, EncodePath.SUB1, meter)
    if paper:
        domain = n
    else:
        meter.table_reads += lookup_reads(table)[1]
        domain = 2 * members[1]
        assert domain >= 2 * len(marked)  # the window holds every marked index
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

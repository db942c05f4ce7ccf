"""Neighbor-list construction and storage accounting."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from hqvq import (
    Codebook, EncoderConfig, build_neighborhoods, choose_delta_hat, distance, encode_vectors, kernels, space_bits,
)
from hqvq.neighborhood import (
    GRID_CELL_CAP, GRID_SIDE_DIVISOR, DiscGrid, NeighborhoodTable, StripDomains, dump_table, neighbor_radius,
)
from reference_encoder import cell_members, lookup_reads, stage1_domain


def brute_lists(vectors, radius):
    """Independent double-loop construction of the neighbor lists."""
    n = len(vectors)
    out = []
    for i in range(n):
        row = [
            j
            for j in range(n)
            if math.sqrt(sum((a - b) ** 2 for a, b in zip(vectors[i], vectors[j]))) < radius
        ]
        out.append(row)
    return out


def neighbor_lists(table):
    """Every list of the table, in codevector order, as plain int lists."""
    return [table.neighbors(i).tolist() for i in range(table.n)]


class TestBuild:
    def test_tight_radius_keeps_only_the_closest_pairs(self):
        cb = Codebook([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        # 2*delta_hat == delta0: the rounding margin keeps the pairs at exactly
        # delta0 (10) and no farther one (sqrt(200))
        table = build_neighborhoods(cb, cb.delta0 / 2.0)
        assert neighbor_lists(table) == [[0, 1, 2], [0, 1], [0, 2]]
        assert table.inf_omega == 2

    def test_one_dimensional_example(self):
        # pairwise distances: 1, 2, 10, 1, 9, 8 against radius 3
        cb = Codebook([[0.0], [1.0], [2.0], [10.0]])
        table = build_neighborhoods(cb, 1.5)
        assert neighbor_lists(table) == [[0, 1, 2], [0, 1, 2], [0, 1, 2], [3]]
        assert table.inf_omega == 1
        assert table.delta_hat == 1.5

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(31)
        vectors = rng.uniform(0, 20, size=(24, 2))
        cb = Codebook(vectors)
        delta_hat = cb.delta0 * 1.7
        table = build_neighborhoods(cb, delta_hat)
        expect = brute_lists(vectors, 2 * delta_hat)
        assert neighbor_lists(table) == expect

    def test_completeness_exhaustive(self):
        rng = np.random.default_rng(32)
        vectors = rng.uniform(0, 30, size=(40, 3))
        cb = Codebook(vectors)
        delta_hat = cb.delta0
        table = build_neighborhoods(cb, delta_hat)
        for i in range(cb.n):
            members = set(int(j) for j in table.neighbors(i))
            for j in range(cb.n):
                inside = distance(vectors[i], vectors[j]) < 2 * delta_hat
                assert (j in members) == inside

    def test_symmetry(self):
        rng = np.random.default_rng(33)
        cb = Codebook(rng.uniform(0, 10, size=(30, 2)))
        table = build_neighborhoods(cb, cb.delta0 * 2)
        sets = [set(l) for l in neighbor_lists(table)]
        for i in range(cb.n):
            for j in sets[i]:
                assert i in sets[j]

    def test_self_membership_and_sorted(self):
        rng = np.random.default_rng(34)
        cb = Codebook(rng.uniform(0, 10, size=(15, 2)))
        table = build_neighborhoods(cb, cb.delta0)
        for i, l in enumerate(neighbor_lists(table)):
            assert i in set(l)
            assert list(l) == sorted(l)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(35)
        cb = Codebook(rng.uniform(0, 10, size=(20, 2)))
        small = build_neighborhoods(cb, cb.delta0)
        large = build_neighborhoods(cb, cb.delta0 * 1.5)
        for a, b in zip(neighbor_lists(small), neighbor_lists(large)):
            assert set(a) <= set(b)

    def test_threshold_below_half_delta0_rejected(self):
        cb = Codebook([[0.0], [10.0]])
        with pytest.raises(ValueError, match="delta0/2"):
            build_neighborhoods(cb, 4.9)

    def test_nan_threshold_rejected(self):
        # NaN fails every comparison, so a plain `delta_hat < delta0/2` check let it
        # through and every list came out empty (inf_omega 0)
        cb = Codebook([[0.0], [10.0]])
        with pytest.raises(ValueError, match="delta0/2"):
            build_neighborhoods(cb, math.nan)


class TestSpaceBits:
    def test_four_singletons(self):
        # no valid delta_hat builds singleton lists: the closest pair is in each other's
        table = NeighborhoodTable(
            delta_hat=50.0, count=np.ones(4, dtype=np.int64), keys=5 * np.arange(4), order=np.arange(4),
            domains=StripDomains(axis=10.0 * np.arange(4), sub1_half=np.ones(4), sub2_half=50.0),
        )
        # lists 4 * (1+1), stage 1's 8 disjoint interval ends and 9 pieces, 4 of them
        # inside an interval: 8 + 8 + (4 + 9) entries of (2+32) bits
        assert space_bits(table) == 986

    def test_two_full_lists(self):
        cb = Codebook([[0.0], [1.0]])
        table = build_neighborhoods(cb, 1.0)  # radius 2 > 1: both lists are {0,1}
        assert neighbor_lists(table) == [[0, 1], [0, 1]]
        # lists 2 * 3; stage 1's intervals 0 -+ 0.5+ and 1 -+ 0.5+ overlap near 0.5, so the 5 pieces
        # hold 0, 1, 2, 1 and 0 members: 6 + 4 + (4 + 5) entries of (1+32) bits
        assert space_bits(table) == 627

    def test_every_term_at_least_two_entries(self):
        rng = np.random.default_rng(36)
        cb = Codebook(rng.uniform(0, 50, size=(8, 2)))
        table = build_neighborhoods(cb, cb.delta0)
        bits_per = max(1, (8 - 1).bit_length()) + 32
        assert space_bits(table) >= 8 * 2 * bits_per


def strip_ends(strips):
    """The sorted first floats of the strips' pieces: each interval's lower end and the float past its upper end."""
    lower, upper = strips.axis - strips.sub1_half, strips.axis + strips.sub1_half
    return np.sort(np.concatenate([lower, np.nextafter(upper, np.inf)]))


def test_stage1_widths_and_pieces():
    # each codevector's stage-1 half-width, in axis order, and the 2N + 1 pieces its
    # intervals cut the axis into: on each, the encoder's |S(x)| is the piece's count
    rng = np.random.default_rng(37)
    cb = Codebook(np.vstack([rng.uniform(0, 30, size=(10, 2)), [[80.0, 90.0]]]))  # one isolated codevector
    table = build_neighborhoods(cb, cb.delta0)
    strips = table.domains
    radii = cb.nearest_other / 2.0 * (1.0 - 3.0 * kernels.rounding_bound(2))
    assert strips.axis is cb.axis
    assert strips.sub1_half.tobytes() == kernels.half_width(radii[cb.order], 2, cb.norm_scale).tobytes()
    assert not strips.sub1_half.flags.writeable
    assert strips.sub2_half == kernels.half_width(cb.delta0, 2, cb.norm_scale)
    ends = strip_ends(strips)
    # a block at each piece's first float, and one just below it, counted one codevector at a time
    x = np.concatenate([ends, np.nextafter(ends, -np.inf)])
    literal = [sum(1 for a, h in zip(strips.axis, strips.sub1_half) if a - h <= p <= a + h) for p in x]
    assert kernels.strip_counts(x, np.argsort(x), strips.axis, strips.sub1_half).tolist() == literal
    lists = int((table.count + 1).sum())
    entries = lists + 2 * cb.n + sum(literal[: ends.size]) + 2 * cb.n + 1
    assert space_bits(table) == entries * (4 + 32)


def test_dump_format():
    cb = Codebook([[0.0], [1.0], [2.0], [10.0]])
    table = build_neighborhoods(cb, 1.5)
    lines = dump_table(table).splitlines()
    assert lines[0] == "0: 0 1 2"
    assert lines[3] == "3: 3"


def test_keys_name_each_member_by_its_axis_position():
    # a square lattice: each anti-diagonal's codevectors share one projection, and some
    # lists hold two of them, yet each member keeps its own position on the axis
    side = 5
    cb = Codebook([[10.0 * i, 10.0 * j] for i in range(side) for j in range(side)])
    table = build_neighborhoods(cb, 0.8 * cb.delta0)
    assert len(set(cb.projections.tolist())) == 2 * side - 1
    keys = table.keys.tolist()
    assert all(a < b for a, b in zip(keys, keys[1:]))  # strictly ascending: no two keys name one member
    assert table.order is cb.order
    lists = brute_lists(cb.vectors.tolist(), 2 * table.delta_hat)
    assert any(len(set(cb.projections[l].tolist())) < len(l) for l in lists)
    for i, want in enumerate(lists):
        mine = [key - i * cb.n for key in keys if i * cb.n <= key < (i + 1) * cb.n]
        assert sorted(table.order[mine].tolist()) == want
        assert table.neighbors(i).tolist() == want
    assert not table.keys.flags.writeable


def test_neighbors_past_either_end_raise_index_error():
    cb = Codebook([[0.0], [1.0], [2.0], [10.0]])
    table = build_neighborhoods(cb, 1.5)
    assert table.neighbors(-1).tolist() == table.neighbors(cb.n - 1).tolist() == [3]
    assert table.neighbors(-cb.n).tolist() == [0, 1, 2]
    for i in (cb.n, cb.n + 1, -cb.n - 1):
        with pytest.raises(IndexError):
            table.neighbors(i)


def test_table_fields_hold_each_list_once():
    assert [f.name for f in dataclasses.fields(NeighborhoodTable)] == [
        "delta_hat", "count", "keys", "order", "domains"
    ]


def midpoint_pair(rng: np.random.Generator, k: int):
    """Two codevectors and their rounded midpoint x.

    Draws pairs until rounding puts x strictly inside half the pair's computed
    distance of both ends, or 400 pairs are spent.
    """
    for _ in range(400):
        pair = rng.normal(size=(2, k))
        x = pair.mean(axis=0)
        d = kernels.dist_to_all(x, pair)
        if np.all(d < kernels.dist_to_all(pair[0], pair[1:])[0] / 2.0):
            break
    return pair, x


@settings(max_examples=200, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@example(where="midpoint", seed=0, k=3, n=2, ulps=0)
@given(
    where=st.sampled_from(["midpoint", "shell"]),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    n=st.integers(2, 12),
    ulps=st.integers(-8, 8),
)
def test_lists_hold_the_argmin_on_the_two_delta_hat_shell(where, seed, k, n, ulps):
    """Every index a stage-2 hit can verify lists the row's argmin, a few ulps from 2 delta_hat.

    Codevectors h and j sit 2 delta_hat apart, nudged by ``ulps``, and x lies
    between them: a rounded midpoint of a two-codevector codebook, whose
    computed distances to both ends can lie below delta_hat, or the midpoint
    of two rows of a larger codebook.
    """
    rng = np.random.default_rng(seed)
    if where == "midpoint":
        vectors, x = midpoint_pair(rng, k)
        h, j = 0, 1
    else:
        vectors = rng.normal(size=(n, k))
        h, j = rng.choice(n, size=2, replace=False)
        x = (vectors[h] + vectors[j]) / 2.0
        x = x + ulps * np.spacing(x)
    cb = Codebook(vectors)
    half = distance(vectors[h], vectors[j]) / 2.0
    delta_hat = max(half + ulps * float(np.spacing(half)), cb.delta0 / 2.0)
    table = build_neighborhoods(cb, delta_hat)
    row = kernels.dist_to_all(x, cb.vectors)
    best = int(np.argmin(row))
    for marked in np.flatnonzero(row < delta_hat):
        assert best in table.neighbors(marked)
    # the lists are the computed distances below the widened radius, a superset of 2 * delta_hat's
    radius = neighbor_radius(delta_hat, cb.k)
    assert radius > 2.0 * delta_hat
    assert neighbor_lists(table) == [
        np.flatnonzero(kernels.dist_to_all(v, cb.vectors) < radius).tolist() for v in cb.vectors
    ]


def plane_codebook(rng: np.random.Generator, k: int, n: int, spread: str) -> Codebook:
    """A k >= 3 codebook: normal rows, or rows whose half-distances differ, or one far codevector."""
    rows = rng.normal(size=(n, k))
    if spread == "isolated":
        rows[: max(1, n // 3)] *= 20.0  # large and small stage-1 radii side by side
    elif spread == "far":
        rows[0] = 1e100  # one codevector stretches the plane
    return Codebook(rows)


@settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@example(seed=0, k=3, n=5, factor=1.0, spread="normal")
@example(seed=1, k=4, n=12, factor=3.0, spread="isolated")
@example(seed=2, k=5, n=7, factor=1.25, spread="far")
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(3, 5),
    n=st.integers(2, 12),
    factor=st.sampled_from([1.0, 1.25, 3.0, 20.0]),
    spread=st.sampled_from(["normal", "isolated", "far"]),
)
def test_disc_grid_counts_every_cell_by_brute_force(seed, k, n, factor, spread):
    # every cell's two counts are the literal scan of every codevector's disc against that
    # cell (reference_encoder.cell_members); the side is at least half_width(delta_hat) / 8
    # and the grid holds at most 64 N cells; the grid covers every disc
    rng = np.random.default_rng(seed)
    cb = plane_codebook(rng, k, n, spread)
    table = build_neighborhoods(cb, factor * cb.delta0 / 2.0)
    grid = table.domains
    cols, rows = grid.sub1.shape
    assert grid.sub2.shape == (cols, rows) and cols * rows <= GRID_CELL_CAP * cb.n
    side = kernels.half_width(table.delta_hat, k, cb.norm_scale) / GRID_SIDE_DIVISOR
    assert grid.side >= side
    assert not grid.sub1.flags.writeable and not grid.sub2.flags.writeable
    for a in range(cols):
        for b in range(rows):
            sub1, sub2 = cell_members(grid.low_p + a, grid.low_q + b, cb, table)
            assert (grid.sub1[a, b], grid.sub2[a, b]) == (len(sub1), len(sub2))
    # every codevector's own cell counts it in both lists: the grid covers its discs
    s, t = grid.lookup(cb.projections, kernels.split_projections(cb.vectors))
    assert np.all(s >= 1) and np.all(t >= 1)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("delta_hat", [1e308, math.inf])
def test_an_overflowing_plane_takes_the_strips(k, delta_hat):
    # half_width(delta_hat) saturates to inf, so the plane has no finite grid: the table
    # takes the strips, stage 1 searches each block's S(x), not all N, and stage 2 all N
    rng = np.random.default_rng(38)
    cb = Codebook(rng.normal(size=(6, k)))
    table = build_neighborhoods(cb, delta_hat)
    strips = table.domains
    assert isinstance(strips, StripDomains) and strips.sub2_half == math.inf
    rows = np.vstack([cb.vectors, rng.normal(size=(20, k)), 3.0 * rng.normal(size=(20, k)), np.full((1, k), 1e100)])
    indices, _, batch = encode_vectors(rows, cb, table, EncoderConfig(delta_hat=delta_hat, master_seed=1))
    assert indices.tolist() == kernels.nearest_many(rows, cb.vectors)[0].tolist()
    s = [len(stage1_domain(x, cb)) for x in rows]
    assert batch.facts.domain_s.tolist() == s and 0 < sum(s) < rows.shape[0] * cb.n
    assert batch.facts.domain_t.tolist() == [cb.n] * rows.shape[0]
    # the lists, all N, plus the strips' 2N ends and 2N + 1 pieces, each piece's S_q counted
    # one codevector at a time at its first float
    ends = strip_ends(strips)
    pieces = sum(1 for p in ends for a, h in zip(strips.axis, strips.sub1_half) if a - h <= p <= a + h)
    entries = cb.n * (cb.n + 1) + 2 * cb.n + pieces + 2 * cb.n + 1
    assert space_bits(table) == entries * (3 + 32)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("delta_hat", ["percentile", 1e308, math.inf])
def test_the_domain_rule_is_chosen_once(k, delta_hat):
    # build_neighborhoods alone picks the rule: the disc grid for k >= 3 on a finite plane,
    # the strips otherwise; each rule charges a lookup what the per-block reference charges
    rng = np.random.default_rng(41)
    cb = Codebook(rng.normal(size=(12, k)))
    if delta_hat == "percentile":
        delta_hat = choose_delta_hat(cb, rng.normal(size=(200, k)))
    table = build_neighborhoods(cb, delta_hat)
    grid = k >= 3 and math.isfinite(kernels.half_width(delta_hat, k, cb.norm_scale))
    assert type(table.domains) is (DiscGrid if grid else StripDomains)
    stage1, stage2 = lookup_reads(table)
    entered = np.array([False, True])
    assert table.domains.reads(False) == stage1 and table.domains.reads(True) == stage1 + stage2
    assert table.domains.reads(entered).tolist() == [stage1, stage1 + stage2]


def test_grid_space_bits_count_both_lists_and_a_head_per_cell():
    # k >= 3: the neighbor lists plus each cell's two lists behind one head pointer,
    # in place of stage 1's 2N interval ends and 2N + 1 pieces
    cb = Codebook(np.random.default_rng(39).uniform(0, 50, size=(10, 4)))
    table = build_neighborhoods(cb, cb.delta0)
    grid = table.domains
    entries = int((table.count + 1).sum()) + int(grid.sub1.sum()) + int(grid.sub2.sum()) + grid.sub1.size
    assert space_bits(table) == entries * (4 + 32)


def test_one_far_codevector_keeps_the_grid_within_its_cap():
    # a codevector at 1e100 widens the box to ~1e100: the side doubles until the grid
    # holds at most 64 N cells, and the near codevectors share a cell or two
    rng = np.random.default_rng(40)
    cb = Codebook(np.vstack([rng.normal(size=(20, 4)), np.full((1, 4), 1e100)]))
    table = build_neighborhoods(cb, cb.delta0)
    grid = table.domains
    assert grid.sub1.size <= GRID_CELL_CAP * cb.n
    assert grid.side > 1e97 and math.isfinite(grid.side)
    s, t = grid.lookup(cb.projections[:20], kernels.split_projections(cb.vectors[:20]))
    assert np.all(s >= 1) and np.all(t >= 1)

"""Neighbor-list construction and storage accounting."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from hqvq import Codebook, build_neighborhoods, distance, kernels, space_bits
from hqvq.neighborhood import NeighborhoodTable, dump_table, neighbor_radius


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
            axis=10.0 * np.arange(4), sub1_half=np.ones(4),
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


def test_stage1_widths_and_pieces():
    # each codevector's stage-1 half-width, in axis order, and the 2N + 1 pieces its
    # intervals cut the axis into: on each, the encoder's |S(x)| is the piece's count
    rng = np.random.default_rng(37)
    cb = Codebook(np.vstack([rng.uniform(0, 30, size=(10, 2)), [[80.0, 90.0]]]))  # one isolated codevector
    table = build_neighborhoods(cb, cb.delta0)
    radii = cb.nearest_other / 2.0 * (1.0 - 3.0 * kernels.rounding_bound(2))
    assert table.axis is cb.axis
    assert table.sub1_half.tobytes() == kernels.half_width(radii[cb.order], 2, cb.norm_scale).tobytes()
    assert not table.sub1_half.flags.writeable
    ends = np.sort(np.concatenate([table.axis - table.sub1_half, np.nextafter(table.axis + table.sub1_half, np.inf)]))
    # a block at each piece's first float, and one just below it, counted one codevector at a time
    x = np.concatenate([ends, np.nextafter(ends, -np.inf)])
    literal = [sum(1 for a, h in zip(table.axis, table.sub1_half) if a - h <= p <= a + h) for p in x]
    assert kernels.strip_counts(x, np.argsort(x), table.axis, table.sub1_half).tolist() == literal
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
        "delta_hat", "count", "keys", "order", "axis", "sub1_half"
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

"""Neighbor-list construction and storage accounting."""

import math

import numpy as np
import pytest

from hqvq import Codebook, build_neighborhoods, distance, space_bits
from hqvq.neighborhood import dump_table


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


class TestBuild:
    def test_tight_radius_gives_singletons(self):
        cb = Codebook([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        # 2*delta_hat == delta0: strict < excludes every other codevector
        table = build_neighborhoods(cb, cb.delta0 / 2.0)
        assert all(list(l) == [i] for i, l in enumerate(table.lists))
        assert table.inf_omega == 1

    def test_one_dimensional_example(self):
        # pairwise distances: 1, 2, 10, 1, 9, 8 against radius 3
        cb = Codebook([[0.0], [1.0], [2.0], [10.0]])
        table = build_neighborhoods(cb, 1.5)
        assert [list(l) for l in table.lists] == [[0, 1, 2], [0, 1, 2], [0, 1, 2], [3]]
        assert table.inf_omega == 1
        assert table.delta_hat == 1.5

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(31)
        vectors = rng.uniform(0, 20, size=(24, 2))
        cb = Codebook(vectors)
        delta_hat = cb.delta0 * 1.7
        table = build_neighborhoods(cb, delta_hat)
        expect = brute_lists(vectors, 2 * delta_hat)
        assert [list(l) for l in table.lists] == expect

    def test_completeness_exhaustive(self):
        rng = np.random.default_rng(32)
        vectors = rng.uniform(0, 30, size=(40, 3))
        cb = Codebook(vectors)
        delta_hat = cb.delta0
        table = build_neighborhoods(cb, delta_hat)
        for i in range(cb.n):
            members = set(int(j) for j in table.lists[i])
            for j in range(cb.n):
                inside = distance(vectors[i], vectors[j]) < 2 * delta_hat
                assert (j in members) == inside

    def test_symmetry(self):
        rng = np.random.default_rng(33)
        cb = Codebook(rng.uniform(0, 10, size=(30, 2)))
        table = build_neighborhoods(cb, cb.delta0 * 2)
        sets = [set(int(j) for j in l) for l in table.lists]
        for i in range(cb.n):
            for j in sets[i]:
                assert i in sets[j]

    def test_self_membership_and_sorted(self):
        rng = np.random.default_rng(34)
        cb = Codebook(rng.uniform(0, 10, size=(15, 2)))
        table = build_neighborhoods(cb, cb.delta0)
        for i, l in enumerate(table.lists):
            assert i in set(int(j) for j in l)
            assert list(l) == sorted(l)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(35)
        cb = Codebook(rng.uniform(0, 10, size=(20, 2)))
        small = build_neighborhoods(cb, cb.delta0)
        large = build_neighborhoods(cb, cb.delta0 * 1.5)
        for a, b in zip(small.lists, large.lists):
            assert set(int(j) for j in a) <= set(int(j) for j in b)

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
        cb = Codebook([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
        table = build_neighborhoods(cb, cb.delta0 / 2.0)
        assert all(len(l) == 1 for l in table.lists)
        assert space_bits(table) == 272  # 4 * (1+1) * (2+32)

    def test_two_full_lists(self):
        cb = Codebook([[0.0], [1.0]])
        table = build_neighborhoods(cb, 1.0)  # radius 2 > 1: both lists are {0,1}
        assert [list(l) for l in table.lists] == [[0, 1], [0, 1]]
        assert space_bits(table) == 198  # 2 * 3 * (1+32)

    def test_every_term_at_least_two_entries(self):
        rng = np.random.default_rng(36)
        cb = Codebook(rng.uniform(0, 50, size=(8, 2)))
        table = build_neighborhoods(cb, cb.delta0)
        bits_per = max(1, (8 - 1).bit_length()) + 32
        assert space_bits(table) >= 8 * 2 * bits_per


def test_dump_format():
    cb = Codebook([[0.0], [1.0], [2.0], [10.0]])
    table = build_neighborhoods(cb, 1.5)
    lines = dump_table(table).splitlines()
    assert lines[0] == "0: 0 1 2"
    assert lines[3] == "3: 3"

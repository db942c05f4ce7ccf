"""Closed-form vs statevector search simulation and sampling."""

import math

import numpy as np
import pytest
from scipy import stats as sstats

from hqvq import (
    Codebook,
    MarkedSet,
    grover_distribution,
    measure,
    statevector_distribution,
)
from hqvq.codebook import distances_to_codebook
from hqvq.grover import STATEVECTOR_CAP, marked_set_from_distances

# sin^2(25 * asin(1/16)), frozen from a 50-digit mpmath evaluation
P_MARKED_N256_J12 = 0.9999470421032737


def closed_form_array(ms: MarkedSet, j: int) -> np.ndarray:
    p_marked_each, p_unmarked_each = grover_distribution(ms.t, ms.n, j)
    probs = np.full(ms.n, p_unmarked_each)
    probs[ms.indices] = p_marked_each
    return probs


def marked_at(x, cb: Codebook, delta: float) -> MarkedSet:
    return marked_set_from_distances(distances_to_codebook(x, cb), delta)


class TestMarkedSet:
    def test_threshold_example(self):
        cb = Codebook([[0.0, 1.0], [5.0, 5.0], [1.0, 0.0]])
        ms = marked_at([0.0, 0.0], cb, 2.0)  # distances 1, sqrt(50), 1
        assert list(ms.indices) == [0, 2]
        assert ms.t == 2

    def test_zero_threshold_is_empty(self):
        cb = Codebook([[0.0, 1.0], [5.0, 5.0], [1.0, 0.0]])
        assert marked_at([0.0, 1.0], cb, 0.0).t == 0  # strict <, even at d == 0

    def test_huge_threshold_marks_all(self):
        cb = Codebook([[0.0, 1.0], [5.0, 5.0], [1.0, 0.0]])
        ms = marked_at([0.0, 0.0], cb, 100.0)
        assert list(ms.indices) == [0, 1, 2]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            MarkedSet(n=4, indices=np.array([5]))

    @pytest.mark.parametrize("indices", [[3, 1], [0, 2, 2]], ids=["unsorted", "duplicate"])
    def test_unsorted_or_duplicate_rejected(self, indices):
        with pytest.raises(ValueError, match="sorted and unique"):
            MarkedSet(n=4, indices=np.array(indices))


class TestClosedForm:
    def test_exact_quarter_case(self):
        # theta = pi/6, so one iteration rotates exactly onto the marked state
        p_marked, p_unmarked = grover_distribution(1, 4, 1)
        assert p_marked == pytest.approx(1.0, abs=1e-15)
        assert p_unmarked == pytest.approx(0.0, abs=1e-15)

    def test_zero_iterations_is_uniform(self):
        p_marked, _ = grover_distribution(2, 8, 0)
        assert 2 * p_marked == pytest.approx(0.25, abs=1e-15)
        assert p_marked == pytest.approx(1 / 8, abs=1e-15)

    def test_frozen_high_success_value(self):
        p_marked, _ = grover_distribution(1, 256, 12)
        assert p_marked == pytest.approx(P_MARKED_N256_J12, abs=1e-12)

    def test_no_solutions_uniform(self):
        p_marked, p_unmarked = grover_distribution(0, 16, 5)
        assert p_marked == 0.0
        assert p_unmarked == pytest.approx(1 / 16, abs=1e-15)

    def test_all_solutions_uniform(self):
        p_marked, p_unmarked = grover_distribution(16, 16, 3)
        assert p_marked == pytest.approx(1 / 16, abs=1e-15)
        assert p_unmarked == 0.0

    def test_normalization_sweep(self):
        for n in (1, 2, 7, 32):
            for t in range(n + 1):
                for j in range(0, 12):
                    p_marked, p_unmarked = grover_distribution(t, n, j)
                    total = t * p_marked + (n - t) * p_unmarked
                    assert total == pytest.approx(1.0, abs=1e-12)

    def test_periodicity_exact_case(self):
        # t=1, n=4: theta = pi/6, period pi/theta = 6 iterations
        for j in range(0, 8):
            a, _ = grover_distribution(1, 4, j)
            b, _ = grover_distribution(1, 4, j + 6)
            assert a == pytest.approx(b, abs=1e-9)

    def test_marked_count_out_of_range(self):
        with pytest.raises(ValueError):
            grover_distribution(5, 4, 1)
        with pytest.raises(ValueError):
            grover_distribution(-1, 4, 1)


class TestStatevector:
    def test_zero_iterations_uniform(self):
        probs = statevector_distribution(MarkedSet(n=10, indices=np.array([2, 7])), 0)
        np.testing.assert_allclose(probs, np.full(10, 0.1), atol=1e-15)

    def test_exact_case_point_mass(self):
        probs = statevector_distribution(MarkedSet(n=4, indices=np.array([3])), 1)
        np.testing.assert_allclose(probs, [0, 0, 0, 1], atol=1e-12)

    def test_cap_enforced(self):
        big = MarkedSet(n=STATEVECTOR_CAP + 1, indices=np.array([1]))
        with pytest.raises(ValueError, match="cap"):
            statevector_distribution(big, 1)
        at_cap = MarkedSet(n=STATEVECTOR_CAP, indices=np.array([1]))
        assert statevector_distribution(at_cap, 0).shape == (STATEVECTOR_CAP,)

    def test_agrees_with_closed_form_sample(self):
        rng = np.random.default_rng(41)
        for n in (3, 8, 17, 64):
            max_j = int(2 * math.sqrt(n))
            for t in range(n + 1):
                idx = np.sort(rng.choice(n, size=t, replace=False))
                ms = MarkedSet(n=n, indices=idx)
                for j in (0, 1, max_j):
                    probs = statevector_distribution(ms, j)
                    np.testing.assert_allclose(
                        probs, closed_form_array(ms, j), atol=1e-9, rtol=0
                    )
                    assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_marked_symmetry(self):
        ms = MarkedSet(n=32, indices=np.array([1, 9, 30]))
        probs = statevector_distribution(ms, 4)
        marked_vals = probs[ms.indices]
        assert np.ptp(marked_vals) < 1e-12
        unmarked = np.delete(probs, ms.indices)
        assert np.ptp(unmarked) < 1e-12


class TestMeasure:
    def test_point_mass_always_hits(self):
        ms = MarkedSet(n=4, indices=np.array([3]))
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert measure(ms, 1, rng) == 3

    def test_zero_iterations_uniform_chi_square(self):
        ms = MarkedSet(n=8, indices=np.array([2, 5]))
        rng = np.random.default_rng(7)
        draws = np.array([measure(ms, 0, rng) for _ in range(100_000)])
        counts = np.bincount(draws, minlength=8)
        _, p = sstats.chisquare(counts)
        assert p > 0.01

    def test_high_success_frequency(self):
        ms = MarkedSet(n=256, indices=np.array([17]))
        rng = np.random.default_rng(3)
        hits = sum(measure(ms, 12, rng) == 17 for _ in range(10_000))
        assert hits / 10_000 >= 0.999  # closed form predicts 0.99995

    def test_empty_marked_uniform(self):
        ms = MarkedSet(n=16, indices=np.array([], dtype=np.int64))
        rng = np.random.default_rng(9)
        draws = {measure(ms, 3, rng) for _ in range(2000)}
        assert draws == set(range(16))

    def test_unmarked_sampling_skips_marked(self):
        # iterate enough that unmarked mass dominates is hard; force with j chosen
        # at the anti-phase: for t=1,n=4 two iterations rotate back past uniform
        ms = MarkedSet(n=4, indices=np.array([1]))
        rng = np.random.default_rng(11)
        draws = [measure(ms, 3, rng) for _ in range(4000)]
        # j=3: (2j+1)theta = 7pi/6, sin^2 = 1/4 -> unmarked seen often
        assert {0, 2, 3} <= set(draws)

    def test_deterministic_given_seed(self):
        ms = MarkedSet(n=64, indices=np.array([5, 40]))
        a = [measure(ms, 4, np.random.default_rng(123)) for _ in range(1)]
        b = [measure(ms, 4, np.random.default_rng(123)) for _ in range(1)]
        assert a == b

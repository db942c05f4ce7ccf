"""Closed-form vs statevector search simulation and sampling."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from reference_grover import STATEVECTOR_CAP, statevector_distribution

from hqvq import Codebook
from hqvq.codebook import distances_to_codebook
from hqvq.grover import marked_probability, marked_set_from_distances, measure

# sin^2(25 * asin(1/16)), frozen from a 50-digit mpmath evaluation
P_MARKED_N256_J12 = 0.9999470421032737


def closed_form_array(marked: np.ndarray, n: int, j: int) -> np.ndarray:
    """Per-index distribution: the marked share split evenly over the marked indices, the rest over the others."""
    t = marked.size
    p = float(marked_probability(t, n, j))
    probs = np.full(n, (1.0 - p) / max(n - t, 1))
    probs[marked] = p / max(t, 1)
    return probs


def marked_at(x, cb: Codebook, delta: float) -> np.ndarray:
    return marked_set_from_distances(distances_to_codebook(x, cb), delta)


# a few exact values, so distances tie with each other and with delta
TIE_VALUES = [0.0, 0.5, 1.0, 2.5, 4.0]


class TestMarkedIndices:
    def test_threshold_example(self):
        cb = Codebook([[0.0, 1.0], [5.0, 5.0], [1.0, 0.0]])
        marked = marked_at([0.0, 0.0], cb, 2.0)  # distances 1, sqrt(50), 1
        assert list(marked) == [0, 2]

    def test_zero_threshold_is_empty(self):
        cb = Codebook([[0.0, 1.0], [5.0, 5.0], [1.0, 0.0]])
        assert marked_at([0.0, 1.0], cb, 0.0).size == 0  # strict <, even at d == 0

    def test_huge_threshold_marks_all(self):
        cb = Codebook([[0.0, 1.0], [5.0, 5.0], [1.0, 0.0]])
        assert list(marked_at([0.0, 0.0], cb, 100.0)) == [0, 1, 2]

    @settings(max_examples=200, deadline=None)
    @example(distances=[1.0, 0.5, 1.0, 2.5], delta=1.0)  # ties exactly at delta stay out
    @example(distances=[0.0, 0.5], delta=0.0)  # delta <= 0 marks nothing
    @example(distances=[0.0, 0.5], delta=-1.0)
    @example(distances=[4.0, 0.0, 2.5], delta=5.0)  # every index marked
    @given(
        distances=st.lists(
            st.sampled_from(TIE_VALUES) | st.floats(0.0, 5.0), min_size=1, max_size=40
        ),
        delta=st.sampled_from(TIE_VALUES) | st.floats(-1.0, 6.0),
    )
    def test_ascending_in_range_and_exact(self, distances, delta):
        n = len(distances)
        marked = marked_set_from_distances(np.array(distances), delta)
        assert marked.ndim == 1 and np.issubdtype(marked.dtype, np.integer)
        assert (np.diff(marked) > 0).all()
        assert ((marked >= 0) & (marked < n)).all()
        assert set(marked.tolist()) == {i for i, d in enumerate(distances) if d < delta}


class TestClosedForm:
    def test_exact_quarter_case(self):
        # theta = pi/6, so one iteration rotates exactly onto the marked state
        assert marked_probability(1, 4, 1) == pytest.approx(1.0, abs=1e-15)

    def test_zero_iterations_is_uniform(self):
        assert marked_probability(2, 8, 0) == pytest.approx(0.25, abs=1e-15)

    def test_frozen_high_success_value(self):
        assert marked_probability(1, 256, 12) == pytest.approx(P_MARKED_N256_J12, abs=1e-12)

    def test_no_solutions_uniform(self):
        assert marked_probability(0, 16, 5) == 0.0
        np.testing.assert_allclose(closed_form_array(np.array([], dtype=np.int64), 16, 5), 1 / 16, atol=1e-15)

    def test_all_solutions_uniform(self):
        assert marked_probability(16, 16, 3) == 1.0
        np.testing.assert_allclose(closed_form_array(np.arange(16), 16, 3), 1 / 16, atol=1e-15)

    def test_normalization_sweep(self):
        # elementwise over t and j at once, equal to one call per pair (numpy's
        # 0-d and array paths may round the last bit differently), and a probability
        for n in (1, 2, 7, 32):
            t = np.arange(n + 1)[:, None]
            j = np.arange(12)[None, :]
            p = marked_probability(t, n, j)
            assert p.shape == (n + 1, 12)
            assert np.all((p >= 0.0) & (p <= 1.0))
            for ti in range(n + 1):
                for ji in range(12):
                    assert p[ti, ji] == pytest.approx(float(marked_probability(ti, n, ji)), abs=1e-15)
                    probs = closed_form_array(np.arange(ti), n, ji)
                    assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_periodicity_exact_case(self):
        # t=1, n=4: theta = pi/6, period pi/theta = 6 iterations
        j = np.arange(0, 8)
        np.testing.assert_allclose(marked_probability(1, 4, j), marked_probability(1, 4, j + 6), atol=1e-9)


class TestStatevector:
    def test_zero_iterations_uniform(self):
        probs = statevector_distribution(np.array([2, 7]), 10, 0)
        np.testing.assert_allclose(probs, np.full(10, 0.1), atol=1e-15)

    def test_exact_case_point_mass(self):
        probs = statevector_distribution(np.array([3]), 4, 1)
        np.testing.assert_allclose(probs, [0, 0, 0, 1], atol=1e-12)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            statevector_distribution(np.array([1]), STATEVECTOR_CAP + 1, 1)
        at_cap = statevector_distribution(np.array([1]), STATEVECTOR_CAP, 0)
        assert at_cap.shape == (STATEVECTOR_CAP,)

    def test_agrees_with_closed_form_sample(self):
        rng = np.random.default_rng(41)
        for n in (3, 8, 17, 64):
            max_j = int(2 * math.sqrt(n))
            for t in range(n + 1):
                idx = np.sort(rng.choice(n, size=t, replace=False))
                for j in (0, 1, max_j):
                    probs = statevector_distribution(idx, n, j)
                    np.testing.assert_allclose(
                        probs, closed_form_array(idx, n, j), atol=1e-9, rtol=0
                    )
                    assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_marked_symmetry(self):
        marked = np.array([1, 9, 30])
        probs = statevector_distribution(marked, 32, 4)
        assert np.ptp(probs[marked]) < 1e-12
        unmarked = np.delete(probs, marked)
        assert np.ptp(unmarked) < 1e-12


class TestMeasure:
    def test_point_mass_always_hits(self):
        marked = np.array([3])
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert measure(marked, 4, 1, rng) == 3

    def test_zero_iterations_uniform_chi_square(self):
        marked = np.array([2, 5])
        rng = np.random.default_rng(7)
        draws = np.array([measure(marked, 8, 0, rng) for _ in range(100_000)])
        counts = np.bincount(draws, minlength=8)
        _, p = sstats.chisquare(counts)
        assert p > 0.01

    def test_high_success_frequency(self):
        marked = np.array([17])
        rng = np.random.default_rng(3)
        hits = sum(measure(marked, 256, 12, rng) == 17 for _ in range(10_000))
        assert hits / 10_000 >= 0.999  # closed form predicts 0.99995

    def test_empty_marked_uniform(self):
        marked = np.array([], dtype=np.int64)
        rng = np.random.default_rng(9)
        draws = {measure(marked, 16, 3, rng) for _ in range(2000)}
        assert draws == set(range(16))

    def test_unmarked_sampling_skips_marked(self):
        # iterate enough that unmarked mass dominates is hard; force with j chosen
        # at the anti-phase: for t=1,n=4 two iterations rotate back past uniform
        marked = np.array([1])
        rng = np.random.default_rng(11)
        draws = [measure(marked, 4, 3, rng) for _ in range(4000)]
        # j=3: (2j+1)theta = 7pi/6, sin^2 = 1/4 -> unmarked seen often
        assert {0, 2, 3} <= set(draws)

    def test_deterministic_given_seed(self):
        marked = np.array([5, 40])
        a = [measure(marked, 64, 4, np.random.default_rng(123)) for _ in range(1)]
        b = [measure(marked, 64, 4, np.random.default_rng(123)) for _ in range(1)]
        assert a == b

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 64),
        j=st.integers(0, 16),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_draw_is_a_class_coin_then_a_uniform_pick(self, n, j, seed, data):
        # same draws, spelled out: the unmarked pick is the r-th index left after deleting the marked ones
        marked = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64)
        t = marked.size
        rng = np.random.default_rng(seed)
        if t == 0:
            want = rng.integers(0, n)
        elif t == n or rng.random() < marked_probability(t, n, j):
            want = marked[rng.integers(0, t)]
        else:
            want = np.delete(np.arange(n), marked)[rng.integers(0, n - t)]
        assert measure(marked, n, j, np.random.default_rng(seed)) == want

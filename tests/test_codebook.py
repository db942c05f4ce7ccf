"""Codebook foundation: metric, full search, delta0, trainer, file format."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import Phase, event, example, given, settings
from hypothesis import strategies as st

from hqvq import (
    Codebook,
    distance,
    full_search,
    load_codebook,
    save_codebook,
    train_codebook,
)
from hqvq import kernels
from hqvq.codebook import MAX_COMPONENT, DuplicateCodevectors, _separate_duplicates, as_rows, decimals


def brute_nearest(x, vectors):
    """Independent oracle: plain-python linear scan with math.sqrt."""
    best_i, best_d = 0, float("inf")
    for i, c in enumerate(vectors):
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(x, c)))
        if d < best_d:
            best_i, best_d = i, d
    return best_i, best_d


# not a finite vector of dimension 2: each per-vector call rejects it
BAD_VECTORS = [
    pytest.param(1.0, id="scalar"),
    pytest.param([[1.0, 2.0]], id="2-d"),
    pytest.param([], id="empty"),
    pytest.param([1.0, math.inf], id="non-finite"),
    pytest.param([1.0, 2.0, 3.0], id="dimension-mismatch"),
    # its squared distances would overflow to inf, and argmin would return 0
    pytest.param([2e200, 1e200], id="huge"),
]


class TestDistance:
    def test_three_four_five(self):
        assert distance([0, 0], [3, 4]) == 5.0

    def test_identical_is_zero(self):
        assert distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_one_dimensional(self):
        assert distance([0.0], [10.0]) == 10.0

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = rng.normal(size=4), rng.normal(size=4)
            assert distance(a, b) == distance(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            distance([0, 0], [1, 2, 3])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            distance([np.nan, 0], [0, 0])

    @pytest.mark.parametrize("x", BAD_VECTORS)
    def test_bad_vector_rejected(self, x):
        with pytest.raises(ValueError):
            distance(x, [0.0, 0.0])
        with pytest.raises(ValueError):
            distance([0.0, 0.0], x)

    def test_triangle_inequality_many_triples(self):
        rng = np.random.default_rng(99)
        for _ in range(10_000):
            a, b, c = rng.normal(scale=10, size=(3, 3))
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12


class TestFullSearch:
    def test_exact_member(self):
        cb = Codebook([[0.0, 0.0], [1.0, 5.0], [2.0, 2.0]])
        assert full_search([2.0, 2.0], cb) == (2, 0.0)

    def test_symmetric_tie_smallest_index(self):
        cb = Codebook([[0.0], [1.0]])
        assert full_search([0.5], cb) == (0, 0.5)

    def test_matches_independent_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            vectors = rng.uniform(-10, 10, size=(16, 2))
            cb = Codebook(vectors)
            x = rng.uniform(-10, 10, size=2)
            i, d = full_search(x, cb)
            bi, bd = brute_nearest(x, vectors)
            assert i == bi
            assert d == pytest.approx(bd, abs=1e-12)

    def test_result_beats_every_codevector(self):
        rng = np.random.default_rng(4)
        vectors = rng.normal(size=(12, 3))
        cb = Codebook(vectors)
        for _ in range(50):
            x = rng.normal(size=3)
            _, d = full_search(x, cb)
            for c in vectors:
                assert d <= distance(x, c) + 1e-15

    def test_dimension_mismatch(self):
        cb = Codebook([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="dimension"):
            full_search([1.0, 2.0, 3.0], cb)

    @pytest.mark.parametrize("x", BAD_VECTORS)
    def test_bad_vector_rejected(self, x):
        with pytest.raises(ValueError):
            full_search(x, Codebook([[0.0, 0.0], [1.0, 1.0]]))


class TestAsRows:
    def test_list_becomes_float_rows(self):
        rows = as_rows([[1, 2], [3, 4]], 2)
        assert rows.dtype == np.float64 and rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize(
        "x, k, message",
        [
            (np.zeros(2), 2, r"\(M, k\)"),
            (np.zeros((1, 1, 2)), 2, r"\(M, k\)"),
            (np.empty((0, 2)), 2, "non-empty"),
            (np.empty((3, 0)), None, "non-empty"),
            (np.zeros((3, 2)), 3, "dimension mismatch"),
            (np.array([[0.0, math.nan]]), 2, "non-finite"),
            (np.array([[math.inf, 0.0]]), None, "non-finite"),
            (np.array([[0.0, -1e200]]), 2, r"2\*\*500"),
        ],
    )
    def test_rejected(self, x, k, message):
        with pytest.raises(ValueError, match=message):
            as_rows(x, k)

    def test_largest_components_keep_distances_finite(self):
        cb = Codebook([[-MAX_COMPONENT], [MAX_COMPONENT]])
        assert cb.delta0 == 2.0 * MAX_COMPONENT
        assert full_search([MAX_COMPONENT], cb) == (1, 0.0)
        with pytest.raises(ValueError, match=r"2\*\*500"):
            Codebook([[0.0], [np.nextafter(MAX_COMPONENT, math.inf)]])

    def test_codebook_and_trainer_use_it(self):
        with pytest.raises(ValueError, match="non-finite"):
            Codebook([[0.0, 1.0], [math.nan, 2.0]])
        # every distance would overflow to inf: delta0 was inf and index 0 won every search
        with pytest.raises(ValueError, match=r"2\*\*500"):
            Codebook([[0.0, 0.0], [1e200, 1e200], [3e200, 0.0]])
        with pytest.raises(ValueError, match="non-empty"):
            Codebook(np.empty((2, 0)))
        with pytest.raises(ValueError, match=r"\(M, k\)"):
            train_codebook(np.zeros(10), 2, seed=0)


# int's digit limit (0 where it is off): a longer run of digits is not a number
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() or math.inf
# digits, signs, '_', a space, a tab, ARABIC-INDIC SIX, SUPERSCRIPT TWO, FULLWIDTH SIX, a letter
TOKEN_CHARS = "0123456789+-_ \t\u0666\u00b2\uff16x"


@st.composite
def digit_tokens(draw):
    """A token near the digit rule's edges, as str or as its UTF-8 bytes."""
    short = st.text(st.sampled_from(TOKEN_CHARS), max_size=6)
    long = st.builds(
        lambda n, c, at: ("1" * n)[:at] + c + ("1" * n)[at:],
        st.integers(4295, 4305),
        st.sampled_from(["", "", "-", " ", "\u0666"]),
        st.integers(0, 4305),
    )
    token = draw(st.one_of(short, long))
    return token.encode() if draw(st.booleans()) else token


@example(tokens=["+1"])
@example(tokens=["1_0", b"1"])
@example(tokens=[b"1 0"])
@example(tokens=["\u0666"])
@example(tokens=["\u00b2"])
@example(tokens=["\uff16"])
@example(tokens=["7" * 4300])
@example(tokens=[b"7" * 4301])
@given(tokens=st.lists(digit_tokens(), max_size=3))
def test_decimals_reads_exactly_the_ascii_digit_tokens(tokens):
    def ok(t):
        pattern = rb"[0-9]+" if isinstance(t, bytes) else r"[0-9]+"
        return re.fullmatch(pattern, t) is not None and len(t) <= INT_DIGITS

    if all(ok(t) for t in tokens):
        assert decimals(tokens, "bad") == [int(t) for t in tokens]
    else:
        with pytest.raises(ValueError, match="^bad$"):
            decimals(tokens, "bad")


class TestDelta0:
    def test_three_point_example(self):
        # pairs: d01=5, d02=10, d12=5  ->  min 5
        assert Codebook([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]]).delta0 == 5.0

    def test_single_pair(self):
        assert Codebook([[0.0], [10.0]]).delta0 == 10.0

    def test_duplicates_rejected_at_construction(self):
        assert kernels.min_pairwise(np.array([[1.0, 1.0], [1.0, 1.0]])) == 0.0
        with pytest.raises(ValueError, match="duplicate"):
            Codebook([[1.0, 1.0], [1.0, 1.0]])

    def test_fewer_than_two_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            Codebook([[1.0, 2.0]])

    def test_lower_bounds_all_pairs(self):
        rng = np.random.default_rng(8)
        vectors = rng.normal(size=(20, 2))
        cb = Codebook(vectors)
        for i in range(20):
            for j in range(i + 1, 20):
                assert cb.delta0 <= distance(vectors[i], vectors[j]) + 1e-15

    def test_cached_on_codebook(self):
        cb = Codebook([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
        assert cb.delta0 == 5.0

    def test_nearest_other_per_codevector(self):
        # (20, 0) is isolated: its nearest other, (6, 8), is sqrt(260) away
        cb = Codebook([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0], [20.0, 0.0]])
        assert cb.nearest_other.tolist() == [5.0, 5.0, 5.0, math.sqrt(260.0)]
        assert cb.delta0 == cb.nearest_other.min()
        with pytest.raises(ValueError, match="read-only"):
            cb.nearest_other[0] = 1.0

    def test_axis_is_the_sorted_projections(self):
        # sorted once at construction: stage 1's window, the walks and the table's ranks read it
        cb = Codebook(np.random.default_rng(9).normal(size=(40, 3)) * [1.0, 1e-3, 1e3])
        assert cb.axis.tobytes() == np.sort(cb.projections).tobytes()
        assert cb.axis.tobytes() == np.sort(kernels.projections(cb.vectors)).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            cb.axis[0] = 0.0

    def test_order_is_the_stable_argsort_of_the_projections(self):
        # a lattice: each anti-diagonal's codevectors tie, and keep their index order on the axis
        cb = Codebook([[10.0 * i, 10.0 * j] for i in range(5) for j in range(5)])
        assert len(set(cb.projections.tolist())) < cb.n
        assert cb.order.tolist() == np.argsort(cb.projections, kind="stable").tolist()
        assert cb.order.dtype == np.int64
        assert cb.axis.tobytes() == cb.projections[cb.order].tobytes()
        for a in (cb.order, cb.axis, cb.columns):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_norm_scale_bounds_every_norm(self):
        # computed once at construction, as SortedRows computes it: the norm every window margin takes;
        # the largest magnitude is a negative component here
        cb = Codebook(np.random.default_rng(10).normal(size=(40, 3)) * [1.0, -1e3, 1e-3] - [0.0, 5e3, 0.0])
        assert cb.norm_scale == math.sqrt(3) * float(np.abs(cb.vectors).max())
        assert np.all(np.linalg.norm(cb.vectors, axis=1) <= cb.norm_scale)


def reference_train(samples, n, seed, max_iter=60):
    """Plain Lloyd over every sample row, cells gathered with a mask.

    Each centroid adds its cell's rows one at a time in sample order, from
    +0.0, then divides by their count.  For k >= 2 that is the bits of
    ``members.mean(axis=0)``; for k = 1 numpy's mean sums pairwise.
    Returns (codebook, number of dead cells reseeded).
    """
    data = np.asarray(samples, dtype=np.float64)
    uniq = np.unique(data, axis=0)
    rng = np.random.default_rng(seed)
    centroids = uniq[rng.choice(uniq.shape[0], size=n, replace=False)].copy()
    prev, reseeds = None, 0
    for _ in range(max_iter):
        assign, dist = kernels.nearest_many(data, centroids)
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
        for i in range(n):
            members = data[assign == i]
            if members.shape[0]:
                total = np.zeros(data.shape[1])
                for row in members:
                    total = total + row
                centroids[i] = total / members.shape[0]
            else:
                worst = int(np.argmax(dist))
                centroids[i] = data[worst]
                dist[worst] = 0.0
                reseeds += 1
    return _separate_duplicates(centroids, rng), reseeds


def repeated_points(data_seed):
    """85 rows: 80 draws from 12 points (so rows repeat) and 5 distinct outliers."""
    rng = np.random.default_rng(data_seed)
    points = rng.normal(size=(12, 2))
    return np.vstack([points[rng.integers(0, 12, size=80)], 5.0 * rng.normal(size=(5, 2))])


def lloyd_case(seed, k, n, signed_zero=False):
    """2n distinct rows in [-1, 1)^k, each repeated a geometric number of times, shuffled.

    ``signed_zero`` (k >= 2) sets component 0 of the first n // 2 + 1
    distinct rows to -0.0.
    """
    rng = np.random.default_rng(seed)
    distinct = rng.uniform(-1.0, 1.0, size=(2 * n, k))
    if signed_zero and k > 1:
        distinct[: n // 2 + 1, 0] = -0.0
    rows = np.repeat(distinct, rng.geometric(0.2, size=2 * n), axis=0)
    return rows[rng.permutation(rows.shape[0])]


@settings(max_examples=200, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
# a cell whose members all have component 0 == -0.0: its sum starts from +0.0
@example(seed=8, k=2, n=3, max_iter=2, signed_zero=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 3),
    n=st.integers(2, 8),
    max_iter=st.integers(1, 5),
    signed_zero=st.booleans(),
)
def test_train_equals_reference_lloyd(seed, k, n, max_iter, signed_zero):
    # whole-array centroid sums must add each cell's rows in sample order
    samples = lloyd_case(seed, k, n, signed_zero)
    want, reseeds = reference_train(samples, n, seed, max_iter)
    event(f"reseeds: {reseeds}")
    got = train_codebook(samples, n, seed=seed, max_iter=max_iter)
    assert got.vectors.tobytes() == want.vectors.tobytes()


@pytest.mark.parametrize("seed,k,n", [(189, 1, 3), (95, 1, 8), (106, 2, 8), (170, 3, 3)])
def test_train_equals_reference_lloyd_on_dead_cells(seed, k, n):
    # few generated cases reseed a cell (about 1 in 200), so these do
    samples = lloyd_case(seed, k, n)
    want, reseeds = reference_train(samples, n, seed, 5)
    assert reseeds > 0
    got = train_codebook(samples, n, seed=seed, max_iter=5)
    assert got.vectors.tobytes() == want.vectors.tobytes()


def four_by_four_blobs(seed):
    """800 integer points about 16 centres 20 apart on a 4 x 4 grid, sigma 2: most rows repeat."""
    rng = np.random.default_rng(seed)
    centres = 20.0 * np.array([[i, j] for i in range(4) for j in range(4)])
    return np.round(centres[rng.integers(0, 16, size=800)] + rng.normal(0.0, 2.0, size=(800, 2)))


def measured_rows(monkeypatch):
    """Patch ``kernels.window_nearest`` to record (distinct rows, rows measured) of each training pass."""
    log, window_nearest = [], kernels.window_nearest

    def measured(queries, codevectors, bound=None, order=None):
        log.append((queries.shape[0], order[1].size))
        return window_nearest(queries, codevectors, bound, order)

    monkeypatch.setattr(kernels, "window_nearest", measured)
    return log


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_settled_rows_skip_the_window_pass(monkeypatch, seed):
    # clustered samples: after the first iteration most rows lie well inside their cell,
    # within its centroid's certain radius, and only the others are measured
    samples = four_by_four_blobs(seed)
    log = measured_rows(monkeypatch)
    cb = train_codebook(samples, 16, seed=seed)
    distinct = np.unique(samples, axis=0).shape[0]
    assert len(log) > 2 and log[0] == (distinct, distinct)
    later = np.array(log[1:])
    assert np.all(later[:, 0] == distinct) and np.all(later[:, 1] < 0.75 * distinct)
    assert later[:, 1].sum() < later[:, 0].sum() / 3
    want, _ = reference_train(samples, 16, seed)
    assert cb.vectors.tobytes() == want.vectors.tobytes()


@pytest.mark.parametrize(
    "samples,n,seed,max_iter,duplicates,reseeds",
    [
        # rows settle in every iteration after the first
        (repeated_points(0), 8, 0, 60, False, 0),
        # two centroids coincide: their radius is 0, and none of their rows settles
        (repeated_points(144), 8, 2, 60, True, 2),
        (lloyd_case(2090, 1, 5), 5, 2090, 5, True, 1),
        # dead cells are reseeded
        (lloyd_case(106, 2, 8), 8, 106, 5, False, 1),
        (repeated_points(40), 8, 0, 60, False, 1),
    ],
    ids=["settled", "duplicates-2d", "duplicates-1d", "reseeds-lloyd-case", "reseeds-repeated"],
)
def test_train_with_settled_rows_equals_reference_lloyd(monkeypatch, samples, n, seed, max_iter, duplicates, reseeds):
    log = measured_rows(monkeypatch)
    radii, real = [], kernels.certain_radii

    def recorded(nearest_other, k):
        radii.append(real(nearest_other, k))
        return radii[-1]

    monkeypatch.setattr(kernels, "certain_radii", recorded)
    got = train_codebook(samples, n, seed=seed, max_iter=max_iter)
    want, got_reseeds = reference_train(samples, n, seed, max_iter)
    assert got.vectors.tobytes() == want.vectors.tobytes()
    # every pass after the first skips some rows
    assert len(log) > 1 and all(measured < m for m, measured in log[1:])
    assert (min(r.min() for r in radii) == 0.0) == duplicates
    assert got_reseeds == reseeds


class TestTrainer:
    @pytest.mark.parametrize(
        "data_seed,seed,reseeds,max_iter",
        [(0, 0, 0, 60), (40, 0, 1, 60), (144, 2, 2, 60), (144, 2, 0, 1), (144, 2, 1, 2)],
    )
    def test_equals_full_row_lloyd(self, data_seed, seed, reseeds, max_iter):
        # assigning distinct rows and gathering them back must not change a bit,
        # also on iterations that reseed a dead cell
        samples = repeated_points(data_seed)
        assert np.unique(samples, axis=0).shape[0] < samples.shape[0]
        want, got_reseeds = reference_train(samples, 8, seed, max_iter)
        assert got_reseeds == reseeds
        got = train_codebook(samples, 8, seed=seed, max_iter=max_iter)
        assert got.vectors.tobytes() == want.vectors.tobytes()

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            train_codebook(repeated_points(0), 8, seed=0, max_iter=max_iter)

    def test_distinct_points_are_a_fixed_point(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        cb = train_codebook(pts, 4, seed=1)
        got = sorted(map(tuple, cb.vectors))
        assert got == sorted(map(tuple, pts))

    def test_two_blob_means(self):
        rng = np.random.default_rng(11)
        sigma = 0.5
        blob_a = rng.normal([0.0, 0.0], sigma, size=(200, 2))
        blob_b = rng.normal([20.0, 20.0], sigma, size=(200, 2))
        cb = train_codebook(np.vstack([blob_a, blob_b]), 2, seed=2)
        means = sorted(map(tuple, [blob_a.mean(axis=0), blob_b.mean(axis=0)]))
        got = sorted(map(tuple, cb.vectors))
        for g, m in zip(got, means):
            assert distance(g, m) < 0.1 * sigma

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(3)
        samples = rng.uniform(0, 255, size=(300, 2))
        a = train_codebook(samples, 16, seed=42)
        b = train_codebook(samples, 16, seed=42)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_trained_codebook_is_valid(self):
        rng = np.random.default_rng(13)
        samples = rng.uniform(0, 255, size=(500, 4))
        cb = train_codebook(samples, 32, seed=0)
        assert cb.n == 32 and cb.k == 4
        assert cb.delta0 > 0

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least"):
            train_codebook(np.zeros((3, 2)) + np.arange(3)[:, None], 4, seed=0)

    def test_degenerate_identical_samples(self):
        with pytest.raises(ValueError, match="distinct"):
            train_codebook(np.ones((50, 2)), 4, seed=0)

    def test_delta0_computed_once(self, monkeypatch):
        calls, passes = [], []
        real, window_nearest = kernels.nearest_other, kernels.window_nearest

        def counted(codevectors):
            calls.append(codevectors)
            return real(codevectors)

        def measured(queries, codevectors, bound=None, order=None):
            passes.append(codevectors)
            return window_nearest(queries, codevectors, bound, order)

        monkeypatch.setattr(kernels, "nearest_other", counted)
        monkeypatch.setattr(kernels, "window_nearest", measured)
        cb = train_codebook(repeated_points(0), 8, seed=0)
        # each Lloyd iteration after the first reads its certain radii off the
        # SortedRows its window pass takes, built once for both
        assert len(passes) > 2 and len(calls) == len(passes)
        assert all(c is p and not isinstance(c, Codebook) for c, p in zip(calls, passes[1:]))
        # one pass over the returned codebook gives both the per-codevector distances and delta0
        assert calls[-1] is cb
        assert cb.nearest_other.tolist() == real(cb).tolist()
        assert cb.delta0 == kernels.min_pairwise(cb.vectors)

    def test_duplicate_centroids_separated(self, monkeypatch):
        calls = []
        real = kernels.nearest_other

        def counted(vectors):
            calls.append(real(vectors))
            return calls[-1]

        monkeypatch.setattr(kernels, "nearest_other", counted)
        centroids = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [3.0, 1.0], [1.0, 2.0]])
        cb = _separate_duplicates(centroids.copy(), np.random.default_rng(0))
        # one attempt finds delta0 == 0, the jittered second one builds the codebook
        assert len(calls) == 2 and calls[0].min() == 0.0
        assert calls[1] is cb.nearest_other and cb.delta0 == calls[1].min() > 0.0
        # only the later copy of each duplicate moves, and only slightly
        assert cb.vectors[[0, 1, 3]].tolist() == centroids[[0, 1, 3]].tolist()
        assert np.all(np.abs(cb.vectors - centroids) < 1e-6)


class TestCodebookFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        cb = Codebook(rng.normal(size=(10, 3)) * math.pi)
        path = tmp_path / "cb.txt"
        save_codebook(cb, path)
        back = load_codebook(path)
        np.testing.assert_array_equal(back.vectors, cb.vectors)

    def test_header_format(self, tmp_path):
        cb = Codebook([[0.5, 1.25], [2.0, 3.0]])
        path = tmp_path / "cb.txt"
        save_codebook(cb, path)
        first = path.read_text().splitlines()[0]
        assert first == "VQCB 1 2 2"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NOPE 1 2 2\n0 0\n1 1\n")
        with pytest.raises(ValueError, match="header"):
            load_codebook(path)

    def test_wrong_row_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("VQCB 1 2 3\n0 0\n1 1\n")
        with pytest.raises(ValueError, match="codevector lines"):
            load_codebook(path)

    @pytest.mark.parametrize(
        "data, error",
        [
            pytest.param(b"VQCB 1 2 2\n0 1_0\n1 1\n", ValueError, id="underscore"),  # float() reads 1_0 as 10.0
            pytest.param(b"VQCB 1 0_2 2\n0 0\n1 1\n", ValueError, id="header-underscore"),
            pytest.param(b"VQCB 1 2 +2\n0 0\n1 1\n", ValueError, id="header-plus"),
            pytest.param(b"VQCB 1 x 2\n0 0\n1 1\n", ValueError, id="header-letter"),
            # past int's 4300-digit limit, int() failed without the file's name
            pytest.param(b"VQCB 1 " + b"2" * 5000 + b" 2\n0 0\n1 1\n", ValueError, id="header-5000-digit-k"),
            pytest.param(b"VQCB 1 2 " + b"2" * 5000 + b"\n0 0\n1 1\n", ValueError, id="header-5000-digit-n"),
            pytest.param(b"VQCB 1 2 2\n0 x\n1 1\n", ValueError, id="letter"),
            pytest.param(b"VQCB 1 2 2\n0 \xd9\xa1\n1 1\n", ValueError, id="non-ascii-digit"),  # ARABIC-INDIC ONE
            pytest.param(b"VQCB 1 2 2\n0 \xff\n1 1\n", ValueError, id="not-utf8"),
            # numbers that parse, in a file Codebook rejects
            pytest.param(b"VQCB 1 2 2\n0 nan\n1 1\n", ValueError, id="nan"),
            pytest.param(b"VQCB 1 2 2\n0 inf\n1 1\n", ValueError, id="inf"),
            pytest.param(b"VQCB 1 2 2\n1 1\n1 1\n", DuplicateCodevectors, id="duplicate-rows"),
            pytest.param(b"VQCB 1 2 1\n0 0\n", ValueError, id="one-row"),
            pytest.param(b"VQCB 1 2 3\n0 0\n1e200 1e200\n3e200 0\n", ValueError, id="huge"),
        ],
    )
    def test_malformed_numbers_rejected_naming_the_file(self, tmp_path, data, error):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="bad.txt") as caught:
            load_codebook(path)
        assert caught.type is error

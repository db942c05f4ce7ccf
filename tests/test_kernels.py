"""The distance kernel against a sequential pure-Python reference, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hqvq import Codebook, build_neighborhoods, kernels

TILE = kernels.TILE


def ref_distance(q, v):
    """Sum (v_d - q_d)**2 over d in index order, then sqrt: the kernel's contract."""
    s = 0.0
    for a, b in zip(q, v):
        diff = float(b) - float(a)
        s += diff * diff
    return math.sqrt(s)


def ref_nearest(q, vectors):
    """First index of the minimum distance, scanning in index order."""
    best, arg = math.inf, 0
    for i, v in enumerate(vectors):
        d = ref_distance(q, v)
        if d < best:
            best, arg = d, i
    return arg, best


def ref_min_pairwise(vectors):
    n = len(vectors)
    return min(ref_distance(vectors[i], vectors[j]) for i in range(n) for j in range(i + 1, n))


@pytest.fixture(scope="module")
def random_data():
    rng = np.random.default_rng(2024)
    vectors = rng.normal(size=(50, 3))
    queries = rng.normal(size=(20, 3))
    return queries, vectors


def test_dist_to_all_numpy_matches_brute(random_data):
    queries, vectors = random_data
    d = kernels.dist_to_all(queries[0], vectors)
    assert d.tolist() == [ref_distance(queries[0], v) for v in vectors]


def test_active_impl_matches_numpy(random_data):
    assert kernels.ACTIVE_IMPL == "numpy"
    queries, vectors = random_data
    for q in queries:
        assert kernels.dist_to_all(q, vectors).tolist() == [ref_distance(q, v) for v in vectors]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 9, 16])
@pytest.mark.parametrize(
    "m,n",
    [(1, 2), (1, TILE + 1), (TILE, 2), (TILE + 1, 3), (2 * TILE + 5, TILE + 3)],
)
def test_kernels_match_reference_bitwise(k, m, n):
    rng = np.random.default_rng(1000 * k + m + n)
    vectors = rng.normal(size=(n, k))
    queries = rng.normal(size=(m, k))
    for q in queries:
        assert kernels.dist_to_all(q, vectors).tolist() == [ref_distance(q, v) for v in vectors]
    idx, dist = kernels.nearest_many(queries, vectors)
    assert idx.dtype == np.int64 and idx.shape == dist.shape == (m,)
    assert list(zip(idx.tolist(), dist.tolist())) == [ref_nearest(q, vectors) for q in queries]
    assert kernels.min_pairwise(vectors) == ref_min_pairwise(vectors)


def test_single_row_matches_batch_entry(random_data):
    # per-pair calls must agree bitwise with the batched kernel
    queries, vectors = random_data
    q = queries[0]
    batch = kernels.dist_to_all(q, vectors)
    for i in range(vectors.shape[0]):
        single = kernels.dist_to_all(q, vectors[i : i + 1])[0]
        assert single == batch[i]


def test_min_pairwise_matches_double_loop(random_data):
    _, vectors = random_data
    assert kernels.min_pairwise(vectors) == ref_min_pairwise(vectors)


def test_nearest_many_ties_take_smallest_index():
    vectors = np.array([[0.0], [2.0], [0.0]])  # duplicate rows: index 0 wins
    idx, dist = kernels.nearest_many(np.array([[0.1]]), vectors)
    assert idx[0] == 0
    assert dist[0] == pytest.approx(0.1)


def test_ties_take_smallest_index_in_every_tile():
    # rows 1 and 3 are both at distance 1 from the origin; so are 2 and 4 from 5
    vectors = np.array([[3.0], [1.0], [4.0], [-1.0], [6.0]])
    queries = np.array([[0.0], [5.0]] * (TILE + 3))
    idx, dist = kernels.nearest_many(queries, vectors)
    assert idx.tolist() == [1, 2] * (TILE + 3)
    assert dist.tolist() == [1.0] * (2 * TILE + 6)


@pytest.mark.parametrize("i", [0, TILE - 1, TILE, 2 * TILE + 3])
def test_min_pairwise_finds_the_closest_pair_in_any_tile(i):
    # 10 apart everywhere except rows i and i + 1, which straddle a tile
    # boundary when i == TILE - 1 and are the last pair when i == 2 * TILE + 3
    vectors = 10.0 * np.arange(2 * TILE + 5, dtype=np.float64)[:, np.newaxis]
    vectors[i + 1 :] -= 9.5
    assert kernels.min_pairwise(vectors) == 0.5


@pytest.mark.parametrize("factor", [0.6, 1.0, 2.5])
def test_build_neighborhoods_matches_brute_force(factor):
    rng = np.random.default_rng(77)
    vectors = rng.uniform(0, 10, size=(2 * TILE + 3, 2))
    cb = Codebook(vectors)
    delta_hat = factor * cb.delta0 * 4
    radius = 2.0 * delta_hat
    table = build_neighborhoods(cb, delta_hat)
    expect = [
        [j for j in range(len(vectors)) if ref_distance(vectors[i], vectors[j]) < radius]
        for i in range(len(vectors))
    ]
    assert [l.tolist() for l in table.lists] == expect
    assert all(l.dtype == np.int64 and not l.flags.writeable for l in table.lists)


def _query_and_codebook(draw):
    k = draw(st.integers(1, 9))
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 2 * TILE + 2))
    # a coarse integer grid makes exact ties common; floats cover the rest
    elements = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
    vectors = draw(arrays(np.float64, (n, k), elements=elements))
    pool = draw(arrays(np.float64, (draw(st.integers(1, 8)), k), elements=elements))
    # queries: pool rows and codevectors, repeated across tiles
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    candidates = np.concatenate([pool, vectors])
    return candidates[rng.integers(0, len(candidates), size=m)], vectors


# no shrink phase: shrinking these arrays takes minutes, and a failing example
# is readable as drawn
@settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.data())
def test_nearest_many_is_rowwise_argmin_of_dist_to_all(data):
    queries, vectors = _query_and_codebook(data.draw)
    idx, dist = kernels.nearest_many(queries, vectors)
    for r, q in enumerate(queries):
        d = kernels.dist_to_all(q, vectors)
        assert idx[r] == int(np.argmin(d))
        assert dist[r] == d[idx[r]]

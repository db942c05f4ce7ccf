"""The distance kernel against a sequential pure-Python reference, bit for bit."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hqvq import Codebook, build_neighborhoods, kernels

WINDOW_TILE = kernels.WINDOW_TILE
HALF_TILE = WINDOW_TILE // 2  # a row count inside one tile


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


def ref_nearest_other(vectors):
    """Each row's smallest ``ref_distance`` to another row, scanning every other row."""
    n = len(vectors)
    return [min(ref_distance(vectors[i], vectors[j]) for j in range(n) if j != i) for i in range(n)]


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
    [
        (1, 2),
        (1, HALF_TILE + 1),
        (HALF_TILE, 2),
        (HALF_TILE + 1, 3),
        (WINDOW_TILE, 2),
        (WINDOW_TILE + 1, 3),
        (WINDOW_TILE + 5, HALF_TILE + 3),
    ],
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
    assert kernels.nearest_other(vectors).tolist() == ref_nearest_other(vectors)


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
    queries = np.array([[0.0], [5.0]] * (WINDOW_TILE + 3))
    idx, dist = kernels.nearest_many(queries, vectors)
    assert idx.tolist() == [1, 2] * (WINDOW_TILE + 3)
    assert dist.tolist() == [1.0] * (2 * WINDOW_TILE + 6)


@pytest.mark.parametrize("i", [0, HALF_TILE - 1, HALF_TILE, WINDOW_TILE - 1, WINDOW_TILE, WINDOW_TILE + 3])
def test_min_pairwise_finds_the_closest_pair_in_any_tile(i):
    # 10 apart everywhere except rows i and i + 1, which straddle the first
    # tile's boundary when i == WINDOW_TILE - 1, open the second tile when
    # i == WINDOW_TILE and are the last pair when i == WINDOW_TILE + 3
    vectors = 10.0 * np.arange(WINDOW_TILE + 5, dtype=np.float64)[:, np.newaxis]
    vectors[i + 1 :] -= 9.5
    assert kernels.min_pairwise(vectors) == 0.5


@pytest.mark.parametrize("factor", [0.6, 1.0, 2.5])
def test_build_neighborhoods_matches_brute_force(factor):
    rng = np.random.default_rng(77)
    vectors = rng.uniform(0, 10, size=(WINDOW_TILE + 3, 2))
    cb = Codebook(vectors)
    delta_hat = factor * cb.delta0 * 4
    radius = 2.0 * delta_hat
    table = build_neighborhoods(cb, delta_hat)
    expect = [
        [j for j in range(len(vectors)) if ref_distance(vectors[i], vectors[j]) < radius]
        for i in range(len(vectors))
    ]
    assert [table.neighbors(i).tolist() for i in range(table.n)] == expect
    for a in (table.keys, table.count, table.order):
        assert a.dtype == np.int64 and not a.flags.writeable
    # the stored count itself, not a copy rebuilt per call
    assert table.sizes() is table.count and table.sizes() is table.sizes()


def _query_and_codebook(draw):
    k = draw(st.integers(1, 9))
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 2 * WINDOW_TILE + 2))
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


@st.composite
def window_cases(draw):
    queries, vectors = _query_and_codebook(draw)
    shift = draw(st.sampled_from([0.0, 1e6]))
    queries, vectors = queries + shift, vectors + shift
    kind = draw(st.sampled_from(["zero", "attained", "any"]))
    if kind == "zero":
        radius = 0.0
    elif kind == "attained":  # a distance that occurs: rows sit exactly on the boundary
        i = draw(st.integers(0, queries.shape[0] - 1))
        radius = float(kernels.dist_to_all(queries[i], vectors)[draw(st.integers(0, vectors.shape[0] - 1))])
    else:
        radius = draw(st.floats(0, 3e3))
    return queries, vectors, radius, draw(st.sampled_from([None, None, "nearest", "loose", "inf"]))


def _grid(side):
    """The integer points of a side x side square, row by row."""
    return np.array([[i, j] for i in range(side) for j in range(side)], dtype=np.float64)


def _diagonal():
    """(i, i) for i in 0..40: every codevector on the mean axis, sqrt(2) apart on it."""
    return np.repeat(np.arange(41.0)[:, np.newaxis], 2, axis=1)


def _across(centre, offsets):
    """Rows (centre + a, centre - a): one projection, at sqrt(2) |a| from (centre, centre)."""
    offsets = np.asarray(offsets, dtype=np.float64)[:, np.newaxis]
    return np.hstack([centre + offsets, centre - offsets])


def _first_tile_defers():
    """128 rows on one projection, 0 to 12.7 sqrt(2) from (20, 20), then 20 near (30, 30)."""
    return np.vstack([_across(20.0, 0.1 * np.arange(WINDOW_TILE)), _across(30.0, [0.0, 0.5] * 10)])


def _bound(kind, full):
    """The ``bound`` argument a case names, from its full distance rows."""
    if kind is None:
        return None
    return {"nearest": full.min(axis=1), "loose": full.max(axis=1), "inf": np.full(full.shape[0], np.inf)}[kind]


@settings(max_examples=100, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
# equal-distance ties across tiles: four codevectors at sqrt(0.5) from every query
@example(case=(np.tile([[3.5, 4.5], [6.5, 1.5]], (WINDOW_TILE + 3, 1)), _grid(10), 0.0, None))
# all codevectors share one projection: (a, -a)
@example(
    case=(
        np.array([[0.3, -0.1], [5.0, 5.0], [-2.0, 2.5]] * WINDOW_TILE),
        np.array([[a, -a] for a in range(-20, 21)], dtype=np.float64),
        0.0,
        None,
    )
)
# a query exactly at the window edge: (4, 5) is sqrt(2) from (3, 4), and the computed
# projections differ by one ulp more than sqrt(2)
@example(case=(np.tile([[3.0, 4.0], [1.0, 6.0]], (WINDOW_TILE + 1, 1)), _grid(10), math.sqrt(2.0), None))
# k = 1: ties between the integers, and radius 2.5 attained from every half-integer
@example(case=(np.arange(-5.0, 45.0, 0.5)[:, np.newaxis], np.arange(40.0)[:, np.newaxis], 2.5, None))
# magnitudes near 1e6: the rounding margin grows with the norms
@example(case=(1e6 + _grid(12)[::-1] / 3.0, 1e6 + _grid(9) / 2.0, math.sqrt(0.5), None))
# narrow and full windows in one pass: a tile of narrow windows, then rows far from
# every codevector, deferred to a bounded pass whose windows hold the whole codebook
# and so fill all of a tile x N in both buffers
@example(case=(np.array([[0.25, 0.25]] * WINDOW_TILE + [[54.5, -45.5], [-45.5, 54.5]] * 64), _grid(10), 0.0, None))
# radius 0, and the first tile defers 88 of its 128 rows: they share one projection,
# and those 4 sqrt(2) or more from (20, 20) reach past the look, (16, 16)..(23, 23)
@example(case=(_first_tile_defers(), _diagonal(), 0.0, None))
# one outlier row among rows on the codevectors: only it is deferred, and the next
# tile's look stays narrow
@example(
    case=(
        np.vstack([_grid(12)[: WINDOW_TILE - 1], [[54.5, -45.5]], _grid(12)[WINDOW_TILE - 1 :] + 0.25]),
        _grid(12),
        0.0,
        None,
    )
)
# every row deferred, in both tiles: the second's rows reach past the first's widest
@example(
    case=(
        np.vstack([_across(10.0, 6.0 + np.arange(WINDOW_TILE) / 32), _across(30.0, -20.0 - np.arange(40) / 4)]),
        _diagonal(),
        0.0,
        None,
    )
)
# every row in the bounded pass: the bound is the computed nearest, a loose one, or inf
@example(case=(np.tile([[3.5, 4.5], [6.5, 1.5]], (WINDOW_TILE + 3, 1)), _grid(10), 0.0, "nearest"))
@example(case=(1e6 + _grid(12)[::-1] / 3.0, 1e6 + _grid(9) / 2.0, math.sqrt(0.5), "nearest"))
@example(case=(_first_tile_defers(), _diagonal(), 0.0, "loose"))
@example(case=(np.tile([[3.0, 4.0], [1.0, 6.0]], (WINDOW_TILE + 1, 1)), _grid(10), math.sqrt(2.0), "inf"))
# one row at (1e100, -1e100) projects to 0, among grid rows, but reaches about 1.4e100:
# its window is the whole codebook, and the other rows' margins stay those of their own reach
@example(case=(np.vstack([_grid(12) + 0.25, [[1e100, -1e100]], _grid(12)]), _grid(10), 0.0, None))
@example(case=(np.vstack([_grid(12) + 0.25, [[1e100, -1e100]], _grid(12)]), _grid(10), 0.0, "nearest"))
@given(case=window_cases())
def test_window_pass_matches_full_rows(case):
    """``window_tiles``, ``window_nearest`` and ``window_marked`` against full rows from ``dist_to_all``."""
    queries, vectors, radius, kind = case
    full = np.array([kernels.dist_to_all(q, vectors) for q in queries])
    bound = _bound(kind, full)
    seen = np.zeros(queries.shape[0], dtype=np.int64)
    for rows, cols, d in kernels.window_tiles(queries, vectors, radius, bound):
        seen[rows] += 1
        assert np.all(np.diff(cols) > 0)
        assert d.tobytes() == full[rows][:, cols].tobytes()
        # every codevector within max(radius, the row's nearest) is in the window
        need = full[rows] <= np.maximum(radius, full[rows].min(axis=1))[:, np.newaxis]
        need[:, cols] = False
        assert not need.any()
    assert seen.tolist() == [1] * queries.shape[0]
    idx, dist = kernels.window_nearest(queries, vectors, bound)
    assert idx.dtype == np.int64
    assert idx.tolist() == full.argmin(axis=1).tolist()
    assert dist.tobytes() == full.min(axis=1).tobytes()
    idx, dist, marked, start, count = kernels.window_marked(queries, vectors, radius)
    assert idx.tolist() == full.argmin(axis=1).tolist()
    assert dist.tobytes() == full.min(axis=1).tobytes()
    for a in (marked, start, count):
        assert a.dtype == np.int64 and not a.flags.writeable
    assert [marked[s : s + c].tolist() for s, c in zip(start, count)] == [
        np.flatnonzero(row < radius).tolist() for row in full
    ]


@settings(max_examples=100, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.data())
def test_window_nearest_with_a_bound_is_nearest_many(data):
    """Any bound at least the computed nearest distance gives ``nearest_many``'s bits."""
    queries, vectors = _query_and_codebook(data.draw)
    queries, vectors = [a + data.draw(st.sampled_from([0.0, 1e6])) for a in (queries, vectors)]
    idx, dist = kernels.nearest_many(queries, vectors)
    kind = data.draw(st.sampled_from(["nearest", "ulps", "codevector", "inf"]))
    if kind == "nearest":
        bound = dist.copy()
    elif kind == "ulps":  # a few ulps above the nearest distance
        bound = dist + data.draw(st.integers(1, 8)) * np.spacing(dist)
    elif kind == "codevector":  # the distance to any codevector, as a stale centroid gives
        pick = data.draw(st.integers(0, vectors.shape[0] - 1))
        bound = kernels.paired_distances(queries, vectors[np.full(queries.shape[0], pick)])
    else:
        bound = np.full(queries.shape[0], np.inf)
    got_idx, got_dist = kernels.window_nearest(queries, vectors, bound)
    assert got_idx.tolist() == idx.tolist()
    assert got_dist.tobytes() == dist.tobytes()


def test_paired_distances_are_the_window_bits(random_data):
    queries, vectors = random_data
    pick = np.arange(queries.shape[0]) % vectors.shape[0]
    got = kernels.paired_distances(queries, vectors[pick])
    assert got.tolist() == [ref_distance(q, vectors[j]) for q, j in zip(queries, pick)]


@st.composite
def pairwise_cases(draw):
    k = draw(st.integers(1, 6))
    # a coarse integer grid makes duplicates and exact ties common; floats cover the rest
    elements = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
    vectors = draw(arrays(np.float64, (draw(st.integers(2, 40)), k), elements=elements))
    if draw(st.booleans()):
        # the drawn rows straddle a tile boundary in projection order, between
        # rows far below and above them on the mean axis that fill the tiles
        below = draw(st.integers(WINDOW_TILE + 1 - vectors.shape[0], WINDOW_TILE - 1))
        steps = np.concatenate([-np.arange(1.0, below + 1), np.arange(1.0, draw(st.integers(0, 20)) + 1)])
        far = np.repeat(1e4 * steps[:, np.newaxis], k, axis=1)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        vectors = rng.permutation(np.concatenate([vectors, far]))
    return vectors + draw(st.sampled_from([0.0, 1e6]))


def _far_closest_pair():
    """(0, 0) and (0.5, 0.5), with codevectors far from both between them in projection order."""
    between = [[10.0 * i, -10.0 * i + 0.05 * i] for i in range(1, 12)]
    return np.array([[0.0, 0.0], *between, [0.5, 0.5]])


def _edge_pair_across_tiles():
    """(0, 1) and (3, 4) adjacent in projection order, in consecutive tiles.

    They are the closest pair, 3 sqrt(2) apart, on a line along the mean axis,
    and their computed projections lie more than their computed distance apart:
    a window without the bound, or without the rounding margin, misses them.
    The second tile's 20 rows keep its first look off the first tile.
    """
    below = [[-10.0 * i, -10.0 * i] for i in range(1, WINDOW_TILE)]
    above = [[10.0 * i + 20.0, 10.0 * i + 20.0] for i in range(19)]
    return np.array([*below, [0.0, 1.0], [3.0, 4.0], *above])


@settings(max_examples=100, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@example(vectors=np.array([[1.0, 2.0], [0.5, 0.5], [4.0, -1.0], [0.5, 0.5]]))  # duplicate rows
@example(vectors=2.0 * np.arange(WINDOW_TILE + 1, dtype=np.float64)[::-1, np.newaxis])  # k = 1 ties
# every codevector on one projection: each window holds every pair
@example(vectors=np.array([[a, -a] for a in range(-20, 21)], dtype=np.float64))
@example(vectors=_far_closest_pair())
@example(vectors=np.array([[0.0, 0.0], [3.0, 4.0]]))
@example(vectors=_edge_pair_across_tiles())
@example(vectors=1e6 + np.random.default_rng(3).normal(size=(WINDOW_TILE - 1, 3)))
@given(vectors=pairwise_cases())
def test_min_pairwise_is_the_closest_pair(vectors):
    # each row's nearest other row, bit for bit, with duplicates, ties and shared projections
    want = ref_nearest_other(vectors)
    assert kernels.nearest_other(vectors).tolist() == want
    assert kernels.min_pairwise(vectors) == min(want)
    if min(want) > 0.0:  # a codebook reads delta0 off the same pass
        cb = Codebook(vectors)
        assert cb.nearest_other.tolist() == want and cb.delta0 == min(want)


def _float_rows(elements):
    return arrays(np.float64, st.tuples(st.integers(1, 200), st.integers(1, 4)), elements=elements)


@settings(max_examples=150, deadline=None)
@example(rows=np.array([[0.0, 1.0]]))
@example(rows=np.array([[0.0], [-0.0], [0.0]]))
@example(rows=np.array([[-0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, -0.0]]))
@example(rows=np.tile(np.random.default_rng(5).normal(size=(WINDOW_TILE + 3, 2)), (7, 1)))  # random rows, repeated
@given(
    rows=st.one_of(
        # few values: heavy duplication, and rows that differ only by the sign of zero
        _float_rows(st.sampled_from([0.0, -0.0, 1.0, -2.5])),
        _float_rows(st.integers(-3, 3).map(float)),
        _float_rows(st.floats(allow_nan=False, allow_infinity=False)),
    )
)
def test_distinct_rows_is_unique_with_an_inverse(rows):
    distinct, inverse = kernels.distinct_rows(rows)
    assert inverse.shape == (rows.shape[0],)
    assert np.array_equal(distinct[inverse], rows)
    # strictly increasing: at the first column where neighbours differ, the later is larger
    lo, hi = distinct[:-1], distinct[1:]
    differs = lo != hi
    assert differs.any(axis=1).all()
    col = differs.argmax(axis=1)
    assert np.all(lo[np.arange(col.size), col] < hi[np.arange(col.size), col])
    assert np.array_equal(distinct, np.unique(rows, axis=0))


def ref_distinct_rows(rows):
    """``distinct_rows`` on float64 keys: one stable lexsort, the first row of each run of equal rows."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(rows.shape[0], dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(rows.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


# on and across the edges of the uint16 keys: below 0, both zeros, the top and past it, fractions
KEY_EDGES = [-1.0, -0.0, 0.0, 1.0, 65535.0, 65536.0, 0.5, 1e6]


def _wide_rows(elements):
    return arrays(np.float64, st.tuples(st.integers(1, 200), st.integers(1, 16)), elements=elements)


@settings(max_examples=150, deadline=None)
@example(rows=np.array([[-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]]))  # -0.0 first: the entry keeps its sign
@example(rows=np.array([[0.0, 1.0], [-0.0, 1.0], [65535.0, 0.0]]))
# an integer and a fractional column, all in [0, 65535]: (3, 0.5) and (3, 0.25) differ only in a fraction
@example(rows=np.array([[3.0, 0.5], [1.0, 2.0], [3.0, 0.25], [3.0, 0.5], [1.0, 0.75], [-0.0, 0.25], [0.0, 0.25]]))
@example(rows=np.array([[65535.0, 2.0], [65536.0, 1.0], [65535.0, 2.0]]))
@example(rows=np.array([[0.0, 5.0], [-1.0, 5.0], [0.0, 5.0]]))
@given(
    rows=st.one_of(
        # exact integers in [0, 65535]: the uint16 keys, with duplicates and both zeros
        _wide_rows(st.sampled_from([-0.0, 0.0, 1.0, 2.0, 255.0, 65534.0, 65535.0])),
        _wide_rows(st.integers(0, 65535).map(float)),
        _wide_rows(st.sampled_from(KEY_EDGES)),
        # fractions inside the uint16 range: the rows take the float64 keys
        _wide_rows(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 65535.0])),
        _wide_rows(st.one_of(st.sampled_from(KEY_EDGES), st.integers(0, 3).map(float))),
    )
)
def test_distinct_rows_is_the_float_lexsort_bit_for_bit(rows):
    distinct, inverse = kernels.distinct_rows(rows)
    want, want_inverse = ref_distinct_rows(rows)
    assert distinct.dtype == np.float64 and distinct.shape == want.shape
    assert distinct.tobytes() == want.tobytes()  # sees the sign of zero
    assert inverse.tolist() == want_inverse.tolist()


@settings(max_examples=100, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@example(steps=[0, 0, 0, 4, 4, 9], picks=[0, 3, 5], shifts=[-1, 0, 1], half_step=2, ulps=0)
@given(
    steps=st.lists(st.integers(-12, 12), min_size=1, max_size=30),
    picks=st.lists(st.integers(0, 40), min_size=1, max_size=40),
    shifts=st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=40),
    half_step=st.integers(0, 6),
    ulps=st.integers(-3, 3),
)
def test_strip_counts_is_two_binary_searches(steps, picks, shifts, half_step, ulps):
    # axis entries on a coarse lattice, many tied; centers on entries and on the
    # ends c -+ half of entries, a few ulps either way, so ends land on entries
    axis = np.sort(np.array(steps, dtype=np.float64) * 0.75)
    half = abs(half_step * 0.75 + ulps * 2.0**-50)  # a width: never negative
    centers = axis[np.array(picks) % axis.size] + np.resize(np.array(shifts, dtype=np.float64), len(picks)) * half
    centers = np.concatenate([centers, centers + np.spacing(centers), centers - np.spacing(centers)])
    proj, order = centers, np.argsort(centers)
    want = np.searchsorted(axis, centers + half, side="right") - np.searchsorted(axis, centers - half, side="left")
    literal = [sum(1 for a in axis.tolist() if c - half <= a <= c + half) for c in centers.tolist()]
    got = kernels.strip_counts(proj, order, axis, half)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist() == literal


@settings(max_examples=100, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@example(steps=[0, 0, 0, 4, 4, 9], widths=[0, 1, 2], picks=[0, 3, 5], sides=[-1, 0, 1], ulps=0)
@given(
    steps=st.lists(st.integers(-12, 12), min_size=1, max_size=30),
    widths=st.lists(st.integers(0, 6), min_size=1, max_size=30),
    picks=st.lists(st.integers(0, 40), min_size=1, max_size=40),
    sides=st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=40),
    ulps=st.integers(-3, 3),
)
def test_strip_counts_per_entry_is_an_interval_stabbing_count(steps, widths, picks, sides, ulps):
    # axis entries on a coarse lattice, many tied, each with its own half-width; centers on
    # entries and exactly on their own interval ends, and a few ulps either way
    axis = np.sort(np.array(steps, dtype=np.float64) * 0.75)
    half = np.abs(np.resize(np.array(widths, dtype=np.float64), axis.size) * 0.75 + ulps * 2.0**-50)
    at = np.array(picks) % axis.size
    centers = axis[at] + np.resize(np.array(sides, dtype=np.float64), len(picks)) * half[at]
    centers = np.concatenate([centers, centers + np.spacing(centers), centers - np.spacing(centers)])
    lower, upper = np.sort(axis - half), np.sort(axis + half)
    want = np.searchsorted(lower, centers, side="right") - np.searchsorted(upper, centers, side="left")
    pairs = list(zip(axis.tolist(), half.tolist()))
    literal = [sum(1 for a, h in pairs if a - h <= c <= a + h) for c in centers.tolist()]
    got = kernels.strip_counts(centers, np.argsort(centers), axis, half)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist() == literal


@pytest.mark.parametrize("k", [1, 2, 4, 16])
def test_half_width_is_the_one_strip_margin(k):
    # reach + 4g (reach + (norm + 2 reach)) bit for bit, scalars and arrays alike
    g = kernels.rounding_bound(k)
    pairs = [(0.0, 0.0), (0.3, 100.0), (3.0, 100.0), (2.5e-7, 1e6), (1e6, 2.5), (1.4e100, 255.0)]
    want = [reach + 4.0 * g * (reach + (norm + 2.0 * reach)) for reach, norm in pairs]
    assert [kernels.half_width(reach, k, norm) for reach, norm in pairs] == want
    reach, norm = np.array(pairs).T
    got = kernels.half_width(reach, k, norm)
    assert got.dtype == np.float64 and got.tobytes() == np.array(want).tobytes()
    got = kernels.half_width(reach, k, 7.0)  # one norm for every reach, as the encoder passes it
    assert got.tobytes() == np.array([r + 4.0 * g * (r + (7.0 + 2.0 * r)) for r in reach.tolist()]).tobytes()
    # an inf reach's strip is the whole axis
    assert kernels.half_width(math.inf, k, 100.0) == math.inf
    assert kernels.half_width(np.array([1.0, math.inf]), k, 100.0)[1] == math.inf


@pytest.mark.parametrize("k", [1, 2, 4])
def test_half_width_saturates_silently_at_a_huge_reach(k):
    # 2 * reach overflowed at reach ~ 9e307 with numpy's RuntimeWarning, an error under
    # this suite's filterwarnings; the margin saturates to inf, as at an inf reach
    assert kernels.half_width(1e308, k, 100.0) == math.inf
    assert kernels.half_width(np.float64(1e308), k, 100.0) == math.inf
    got = kernels.half_width(np.array([1.0, 1e308, 4e307]), k, 100.0)
    assert got[1] == math.inf and math.isfinite(got[0]) and math.isfinite(got[2])
    assert got[2] == 4e307 + 4.0 * kernels.rounding_bound(k) * (4e307 + (100.0 + 2.0 * 4e307))


def ref_split_projection(row) -> float:
    """The split axis's coordinate: +x_d over the first k // 2, -x_d over the last k // 2, in index order."""
    k = len(row)
    half = k // 2
    total = float(row[0])
    for d in range(1, half):
        total += float(row[d])
    for d in range(k - half, k):
        total -= float(row[d])
    return total / math.sqrt(2 * half)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(2, 9),
    m=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 255.0, 1e100]),
)
def test_split_projections_sum_in_index_order_within_rounding_bound(k, m, seed, scale):
    # bit for bit the sequential sum, over sqrt(k'); a unit axis orthogonal to the mean
    # axis (the middle component weighs 0 at odd k); within g ||x|| of the exact value
    rows = np.random.default_rng(seed).normal(size=(m, k)) * scale
    got = kernels.split_projections(rows)
    assert got.tolist() == [ref_split_projection(r) for r in rows.tolist()]
    half = k // 2
    axis = np.concatenate([np.ones(half), np.zeros(k % 2), -np.ones(half)]) / math.sqrt(2 * half)
    assert abs(float(axis @ axis) - 1.0) < 1e-15 and abs(float(axis.sum())) < 1e-15
    g = kernels.rounding_bound(k)
    for row, value in zip(rows.tolist(), got.tolist()):
        # the signed sum in rational arithmetic; rounding it, the root and the quotient
        # cost the reference itself at most 3u |exact|
        plus, minus = sum(map(Fraction, row[:half])), sum(map(Fraction, row[k - half :]))
        exact = float(plus - minus) / math.sqrt(2 * half)
        norm = math.sqrt(math.fsum(v * v for v in row))
        assert abs(value - exact) <= g * norm * (1 + 1e-6) + 3 * 2.0**-53 * abs(exact)


def test_split_projection_of_a_2x2_block_is_its_first_haar_detail():
    # a row-major 2 x 2 block (top-left, top-right, bottom-left, bottom-right): (top - bottom) / 2
    rows = np.array([[10.0, 20.0, 30.0, 60.0], [1.0, 1.0, 1.0, 1.0], [255.0, 0.0, 0.0, 255.0]])
    assert kernels.split_projections(rows).tolist() == [-30.0, 0.0, 0.0]
    assert kernels.split_projections(np.array([[1.0, 5.0, 3.0]])).tolist() == [(1.0 - 3.0) / math.sqrt(2)]

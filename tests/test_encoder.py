"""Hybrid encoder: stage contracts, exactness, metering, thresholds."""

import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from reference_encoder import (
    block_draws,
    reference_encode,
    reference_stage2,
    run_stage,
    seeded_draws,
    success_chance,
    trials,
)

from hqvq import (
    Codebook,
    EncodePath,
    EncoderConfig,
    QueryMeter,
    build_neighborhoods,
    choose_delta_hat,
    clustered_dataset,
    encode,
    encode_vectors,
    full_search,
    grid_codebook,
    kernels,
)
from hqvq.codebook import distances_to_codebook
from hqvq.encoder import (
    PICK_SLOT,
    delta_hat_from_nearest,
    nearest_distances,
    sub1_iterations,
    sub1_radius,
    sub2_budget,
    success_table,
)
from hqvq.grover import marked_set_from_distances
from hqvq.pipeline import region_fractions


def make_setup(n=64, delta_hat_factor=1.2):
    cb = grid_codebook(n)
    delta_hat = delta_hat_factor * cb.delta0 / 2.0
    table = build_neighborhoods(cb, delta_hat)
    return cb, table


def marked_count(x, cb: Codebook, delta: float) -> int:
    return marked_set_from_distances(distances_to_codebook(x, cb), delta).size


def line_codebook(n: int) -> Codebook:
    return Codebook(np.arange(n, dtype=np.float64)[:, None] * 10.0)


def rounded_midpoint(rng: np.random.Generator, k: int):
    """Two-codevector codebook and the midpoint x of its pair.

    Draws pairs until rounding puts x strictly inside delta0/2 of both ends
    (without ``sub1_radius``'s margin stage 1 would mark t = 2), or 400 pairs
    are spent.
    """
    for _ in range(400):
        a, b = rng.normal(size=(2, k))
        cb = Codebook([a, b])
        x = (a + b) / 2
        if marked_count(x, cb, cb.delta0 / 2) == 2:
            break
    return cb, x


def midpoint_case():
    # default_rng(0) gets there at draw 144: both distances are 1.68323059 < delta0/2
    return rounded_midpoint(np.random.default_rng(0), 3)


def stage2_rounds(x, cb, table, draw, ordinal) -> list:
    """The j of every stage-2 round the per-block reference runs for this block."""
    rounds = []
    reference_stage2(distances_to_codebook(x, cb), table, block_draws(draw, ordinal), QueryMeter(), rounds)
    return rounds


def encode_rows(rows, cb, table, seed):
    rows = np.asarray(rows, dtype=np.float64)
    return list(encode(rows, cb, table, seeded_draws(seed, rows.shape[0])))


class TestSub1:
    def test_near_codevector_found_with_high_frequency(self):
        cb, table = make_setup(256)
        x = cb.vectors[5] + np.array([0.01, -0.02])
        facts, accepted, _ = run_stage(1, trials(x, 10_000), cb, table, 1)
        assert np.all(facts.index == 5)
        assert accepted.mean() >= 0.999  # closed form: ~0.99995

    def test_far_input_never_found(self):
        cb, table = make_setup(16)
        x = cb.vectors[0] + np.array([4.9, 4.9])  # min distance > delta0/2 = 5
        _, accepted, _ = run_stage(1, trials(x, 200), cb, table, 2)
        assert not accepted.any()

    def test_meter_contract(self):
        cb, table = make_setup(64)
        _, _, meter = run_stage(1, cb.vectors[3:4], cb, table, 3)
        assert meter.grover_iterations.tolist() == [sub1_iterations(64)]
        assert sub1_iterations(64) == math.floor(math.pi / 4 * 8)
        assert meter.classical_distance_evals.tolist() == [1]

    def test_returned_index_is_unique_optimum(self):
        rng = np.random.default_rng(44)
        cb = Codebook(rng.uniform(0, 100, size=(32, 2)))
        table = build_neighborhoods(cb, cb.delta0)
        xs = rng.uniform(0, 100, size=(300, 2))
        facts, accepted, _ = run_stage(1, xs, cb, table, 4)
        for x, index, t_s in zip(xs[accepted], facts.index[accepted], facts.t_s[accepted]):
            assert index == full_search(x, cb)[0]
            assert t_s == marked_count(x, cb, cb.delta0 / 2) == 1

    def test_midpoint_stage1_accepts_only_the_full_search_index(self):
        # both ends lie within rounding of delta0/2 (computed distances below
        # it), so stage 1's margin marks neither and leaves the block to stage 2
        cb, x = midpoint_case()
        table = build_neighborhoods(cb, cb.delta0)
        accepted = [run_stage(1, [x], cb, table, seed)[1][0] for seed in range(40)]
        assert not any(accepted)

    def test_marked_set_at_half_delta0_never_exceeds_one(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            cb = Codebook(rng.uniform(0, 40, size=(24, 2)))
            for _ in range(40):
                x = rng.uniform(-5, 45, size=2)
                assert marked_count(x, cb, cb.delta0 / 2) <= 1


class TestSub2:
    def test_singleton_neighborhood_returns_it(self):
        # isolated codevector far from the cluster: its list is {itself}
        cb = Codebook([[0.0], [1.0], [2.0], [100.0]])
        table = build_neighborhoods(cb, 1.5)
        assert list(table.lists[3]) == [3]
        x = [100.6]  # inside the shell of codevector 3 only
        facts, accepted, meter = run_stage(2, trials(x, 100), cb, table, 5)
        assert np.all(facts.index == 3) and np.all(facts.t == 1)
        assert np.all(facts.pick_size == 1)  # a hit measures 3 and scans its list
        assert accepted.any()
        draw = seeded_draws(5, 100)
        for ordinal in np.flatnonzero(accepted):
            rounds = stage2_rounds(x, cb, table, draw, ordinal)
            assert meter.classical_distance_evals[ordinal] == len(rounds) + 1

    def test_empty_marked_set_exhausts_budget(self):
        # the budget is stage 2's only stopping rule; small N hold the fewest
        # iterations per round, so they run the most rounds before it binds
        for n in (2, 3, 64):
            cb = grid_codebook(n) if n == 64 else line_codebook(n)
            delta_hat = 1.2 * cb.delta0 / 2.0
            table = build_neighborhoods(cb, delta_hat)
            x = np.full(cb.k, 305.0)  # far beyond every codevector's threshold
            assert marked_count(x, cb, delta_hat) == 0
            budget = sub2_budget(n)
            _, accepted, meter = run_stage(2, trials(x, 200), cb, table, 6)
            assert not accepted.any()
            assert np.all(meter.grover_iterations <= budget)
            draw = seeded_draws(6, 200)
            for ordinal in range(200):
                rounds = stage2_rounds(x, cb, table, draw, ordinal)
                assert meter.classical_distance_evals[ordinal] == len(rounds)

    def test_meter_charges_every_drawn_iteration(self):
        # encode_sub2 is the only place stage-2 iterations are charged: the
        # meter equals the sum of the drawn j, which never exceeds the budget
        cb, table = make_setup(64)
        budget = sub2_budget(64)
        rng = np.random.default_rng(53)
        shell = cb.vectors[20] + (cb.delta0 / 2.0) * 1.1 / math.sqrt(2.0)
        points = [shell, np.array([305.0, 305.0]), *rng.uniform(-20, 100, size=(8, 2))]
        rows = np.repeat(np.array(points), 50, axis=0)
        _, _, meter = run_stage(2, rows, cb, table, 15)
        draw = seeded_draws(15, rows.shape[0])
        for ordinal, x in enumerate(rows):
            rounds = stage2_rounds(x, cb, table, draw, ordinal)
            assert meter.grover_iterations[ordinal] == sum(rounds)
        assert np.all(meter.grover_iterations <= budget)

    def test_success_charges_neighborhood_scan(self):
        cb = Codebook([[0.0], [1.0], [2.0], [100.0]])
        table = build_neighborhoods(cb, 1.5)
        x = [0.7]
        dvec = distances_to_codebook(x, cb)
        marked = marked_set_from_distances(dvec, table.delta_hat)
        draw = seeded_draws(7, 1)
        facts, accepted, meter = run_stage(2, [x], cb, table, 7)
        assert accepted[0]
        h = marked[int(draw(PICK_SLOT)[0] * marked.size)]  # the index the hit measures
        assert 1 in table.lists[h]  # the optimum lies in the verified index's list
        assert facts.pick_size[0] == len(table.lists[h])
        rounds = stage2_rounds(x, cb, table, draw, 0)
        assert meter.classical_distance_evals[0] == len(rounds) + len(table.lists[h])

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 255, 1024])
    def test_success_table_is_marked_probability(self, n):
        # every t a block can have and every j a round can draw, with the bits
        # the per-block reference computes one block at a time
        table = success_table(np.arange(n + 1, dtype=np.int64), n)
        width = math.isqrt(n) + 1
        assert table.shape == (n + 1, width)
        want = [[success_chance(t, n, j) for j in range(width)] for t in range(n + 1)]
        assert table.tobytes() == np.array(want).tobytes()

    def test_budget_leavers_and_hits_in_one_round(self):
        # far blocks (t = 0) run out of budget in the rounds where blocks with
        # t = 1 still hit; every block's meter is written when it leaves
        cb = line_codebook(64)
        table = build_neighborhoods(cb, 6.0)
        rows = np.array([[0.0], [1e4]] * 100)
        facts, accepted, meter = run_stage(2, rows, cb, table, 1)
        assert facts.t.tolist() == [1, 0] * 100
        draw = seeded_draws(1, rows.shape[0])
        left, hit = set(), set()
        for ordinal, x in enumerate(rows):
            want = QueryMeter()
            rounds = []
            ok = reference_stage2(distances_to_codebook(x, cb), table, block_draws(draw, ordinal), want, rounds)
            assert accepted[ordinal] == ok
            assert meter.grover_iterations[ordinal] == want.grover_iterations
            assert meter.classical_distance_evals[ordinal] == want.classical_distance_evals
            # a hit in round r ran r + 1 rounds; a leaver in round r ran r
            (hit if ok else left).add(len(rounds) - ok)
        assert left & hit

    def test_mean_iterations_within_bbht_bound(self):
        # smaller cousin of the acceptance check: t=4 solutions out of n=256
        n, t = 256, 4
        cb = line_codebook(n)
        delta_hat = 10.0 * t - 5.0  # marks exactly the first t codevectors of x=0
        table = build_neighborhoods(cb, delta_hat)
        x = np.array([0.0])
        assert marked_count(x, cb, delta_hat) == t
        _, _, meter = run_stage(2, trials(x, 400), cb, table, 9)
        assert np.mean(meter.grover_iterations) <= 1.1 * 2.25 * math.sqrt(n / t)


class TestEncode:
    def test_exact_codevector_hits_sub1(self):
        cb, table = make_setup(64)
        (out,) = encode_rows(cb.vectors[7:8], cb, table, 10)
        assert out.index == 7
        assert out.path == EncodePath.SUB1

    def test_exactness_over_random_instances(self):
        rng = np.random.default_rng(50)
        for n in (16, 64):
            for _ in range(10):
                cb = Codebook(rng.uniform(0, 50, size=(n, 2)))
                delta_hat = cb.delta0 / 2 * rng.uniform(1.0, 3.0)
                table = build_neighborhoods(cb, delta_hat)
                xs = rng.uniform(-10, 60, size=(20, 2))
                for x, out in zip(xs, encode_rows(xs, cb, table, 11)):
                    assert out.index == full_search(x, cb)[0]

    def test_shell_input_never_wrong(self):
        cb, table = make_setup(64)
        # place x in the shell: between delta0/2 and delta_hat of its nearest
        offset = np.array([1.0, 1.0]) / math.sqrt(2.0)
        x = cb.vectors[20] + offset * (cb.delta0 / 2.0) * 1.1
        for out in encode_rows(trials(x, 200), cb, table, 12):
            assert out.path in (EncodePath.SUB2, EncodePath.CLASSICAL_FALLBACK)
            assert out.index == full_search(x, cb)[0]

    def test_fallback_meters_full_scan(self):
        cb, table = make_setup(16)
        (out,) = encode_rows([[500.0, 500.0]], cb, table, 13)
        assert out.path == EncodePath.CLASSICAL_FALLBACK
        # sub1 verify (1) + sub2 rounds (>=1) + fallback full scan (16)
        assert out.meter.classical_distance_evals >= 1 + 1 + 16

    def test_total_iteration_budget(self):
        cb, table = make_setup(64)
        cap = sub1_iterations(64) + sub2_budget(64)
        xs = np.random.default_rng(51).uniform(-20, 100, size=(300, 2))
        for out in encode_rows(xs, cb, table, 14):
            assert out.meter.grover_iterations <= cap

    def test_midpoint_of_two_codevectors_matches_full_search(self):
        # rounding puts x = (a + b) / 2 strictly inside delta0/2 of both a and b,
        # so a plain delta0/2 test would see t = 2; the index must be full search's
        cb, x = midpoint_case()
        table = build_neighborhoods(cb, cb.delta0)
        oracle, _ = full_search(x, cb)
        got = {encode_rows([x], cb, table, seed)[0].index for seed in range(40)}
        assert got == {oracle}

    def test_deterministic_for_seed(self):
        cb, table = make_setup(64)
        xs = np.random.default_rng(52).uniform(0, 80, size=(50, 2))
        a = encode_rows(xs, cb, table, 99)
        b = encode_rows(xs, cb, table, 99)
        assert a == b


BOUNDARIES = ("midpoint", "half_delta0", "delta_hat", "two_delta_hat")


@settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@example(boundary="midpoint", seed=0, k=3, n=2, factor=1.0)  # midpoint_case()
@given(
    boundary=st.sampled_from(BOUNDARIES),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    n=st.integers(2, 12),
    factor=st.sampled_from([1.0, 1.25, 2.0, 3.0]),
)
def test_index_is_full_search_for_every_seed(boundary, seed, k, n, factor):
    # inputs on the encoder's boundaries: rounded pair midpoints, and the
    # delta0/2, delta_hat and 2 * delta_hat shells around a codevector
    rng = np.random.default_rng(seed)
    if boundary == "midpoint":
        cb, x = rounded_midpoint(rng, k)
        delta_hat = factor * cb.delta0 / 2.0
    else:
        cb = Codebook(rng.normal(size=(n, k)))
        delta_hat = factor * cb.delta0 / 2.0
        radius = {
            "half_delta0": cb.delta0 / 2.0,
            "delta_hat": delta_hat,
            "two_delta_hat": 2.0 * delta_hat,
        }[boundary]
        direction = rng.normal(size=k)
        direction *= radius / np.linalg.norm(direction)
        x = cb.vectors[rng.integers(0, cb.n)] + direction
    table = build_neighborhoods(cb, delta_hat)
    oracle, _ = full_search(x, cb)
    got = {encode_rows([x], cb, table, s)[0].index for s in range(5)}
    assert got == {oracle}


@settings(max_examples=100, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@example(where="midpoint", seed=0, k=3, n=2, ulps=0)  # midpoint_case()
@given(
    where=st.sampled_from(["midpoint", "shell"]),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    n=st.integers(2, 12),
    ulps=st.integers(-8, 8),
)
def test_stage1_marks_at_most_the_full_search_index(where, seed, k, n, ulps):
    # inputs a few ulps from the delta0/2 shell: rounded pair midpoints, whose
    # computed distances to both ends can lie below delta0/2, and points at
    # delta0/2 from a codevector of a larger codebook
    rng = np.random.default_rng(seed)
    if where == "midpoint":
        cb, x = rounded_midpoint(rng, k)
    else:
        cb = Codebook(rng.normal(size=(n, k)))
        direction = rng.normal(size=k)
        x = cb.vectors[rng.integers(0, cb.n)] + direction * (cb.delta0 / 2.0 / np.linalg.norm(direction))
    x = x + ulps * np.spacing(x)
    table = build_neighborhoods(cb, cb.delta0)
    facts, accepted, _ = run_stage(1, trials(x, 20), cb, table, seed)
    oracle, _ = full_search(x, cb)
    marked = np.flatnonzero(distances_to_codebook(x, cb) < sub1_radius(cb.delta0, cb.k))
    assert marked.tolist() in ([], [oracle])
    assert np.all(facts.t_s == marked.size)
    assert np.all(facts.index == oracle)
    assert not accepted.any() or marked.size == 1


def boundary_batch(rng: np.random.Generator, cb: Codebook, delta_hat: float, per_kind: int):
    """Blocks on every boundary the meter simulation branches on.

    Codevectors themselves, points on the delta0/2, delta_hat and 2 * delta_hat
    shells, pair midpoints, the centroid (t = N once delta_hat is large) and
    points far from every codevector (t = 0).
    """
    k = cb.k
    rows = [cb.vectors[rng.integers(0, cb.n, size=per_kind)]]
    for radius in (cb.delta0 / 2.0, delta_hat, 2.0 * delta_hat):
        direction = rng.normal(size=(per_kind, k))
        direction *= radius / np.linalg.norm(direction, axis=1, keepdims=True)
        rows.append(cb.vectors[rng.integers(0, cb.n, size=per_kind)] + direction)
    pairs = rng.integers(0, cb.n, size=(per_kind, 2))
    rows.append((cb.vectors[pairs[:, 0]] + cb.vectors[pairs[:, 1]]) / 2)
    rows.append(np.tile(cb.vectors.mean(axis=0), (per_kind, 1)))
    rows.append(cb.vectors[rng.integers(0, cb.n, size=per_kind)] + 1e3 * (1.0 + cb.delta0 + delta_hat))
    rows = np.vstack(rows)
    return rows[rng.permutation(rows.shape[0])]


@settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@example(seed=0, k=3, n=2, factor=1.0, master_seed=0)
@example(seed=1, k=1, n=3, factor=50.0, master_seed=1)
@example(seed=2, k=2, n=3, factor=1.0, master_seed=2)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    n=st.sampled_from([2, 3, 5, 16, 64]),
    factor=st.sampled_from([1.0, 1.25, 2.0, 3.0, 50.0]),
    master_seed=st.integers(0, 2**32 - 1),
)
def test_batch_equals_per_block_reference(seed, k, n, factor, master_seed):
    # the lockstep batch and the per-block walk read the same slot draws, so
    # every block's (index, path, meter) must agree, on every boundary
    rng = np.random.default_rng(seed)
    cb = Codebook(rng.normal(size=(n, k)))
    if n == 2:
        midpoint_cb, midpoint = rounded_midpoint(rng, k)
        if marked_count(midpoint, midpoint_cb, midpoint_cb.delta0 / 2) == 2:
            cb = midpoint_cb  # the batch below gets a rounded midpoint
    delta_hat = factor * cb.delta0 / 2.0
    table = build_neighborhoods(cb, delta_hat)
    rows = boundary_batch(rng, cb, delta_hat, 6)
    # equal blocks share one distance row but each keeps its own draws
    repeats = rng.integers(0, rows.shape[0], size=rows.shape[0])
    rows = np.vstack([rows, rows[rng.permutation(rows.shape[0])], rows[repeats]])
    cfg = EncoderConfig(delta_hat=delta_hat, master_seed=master_seed)
    indices, _, outcomes = encode_vectors(rows, cb, table, cfg)
    draw = seeded_draws(master_seed, rows.shape[0])
    for ordinal, x in enumerate(rows):
        want = reference_encode(distances_to_codebook(x, cb), cb, table, block_draws(draw, ordinal))
        assert outcomes[ordinal] == want
    assert indices.tolist() == [o.index for o in outcomes]


class TestBatch:
    def test_prefix_gives_the_same_outcomes(self):
        # a block's draws are keyed by (seed, slot, ordinal), never by M
        cb = grid_codebook(64)
        delta_hat = 0.6 * cb.delta0
        table = build_neighborhoods(cb, delta_hat)
        rows = clustered_dataset(cb, delta_hat, 400, seed=3)
        cfg = EncoderConfig(delta_hat=delta_hat, master_seed=21)
        _, _, whole = encode_vectors(rows, cb, table, cfg)
        for k in (1, kernels.WINDOW_TILE - 1, kernels.WINDOW_TILE, kernels.WINDOW_TILE + 1, 399):
            _, _, prefix = encode_vectors(rows[:k], cb, table, cfg)
            assert list(prefix) == list(whole)[:k]

    def test_index_is_nearest_many_including_ties(self):
        # grid points and the exact midpoints between them: on a midpoint two
        # or four codevectors tie, and both rules take the smallest index
        cb = grid_codebook(64)
        table = build_neighborhoods(cb, 0.6 * cb.delta0)
        rng = np.random.default_rng(31)
        ties = cb.vectors[rng.integers(0, 64, size=(300, 2))].mean(axis=1)
        rows = np.vstack([ties, rng.uniform(-5, 75, size=(300, 2)), cb.vectors])
        cfg = EncoderConfig(delta_hat=table.delta_hat, master_seed=4)
        indices, _, outcomes = encode_vectors(rows, cb, table, cfg)
        oracle, _ = kernels.nearest_many(rows, cb.vectors)
        assert indices.tolist() == oracle.tolist() == [o.index for o in outcomes]
        dists = np.array([distances_to_codebook(x, cb) for x in rows])
        assert np.count_nonzero((dists == dists.min(axis=1, keepdims=True)).sum(axis=1) > 1) > 100


class TestClassifyRegion:
    def test_on_codevector(self):
        cb, table = make_setup(16)
        _, d = full_search(cb.vectors[0], cb)
        assert region_fractions([d], cb.delta0, table.delta_hat) == (1.0, 0.0, 0.0)

    def test_boundary_is_shell(self):
        cb = Codebook([[0.0], [10.0]])
        # min distance exactly delta0/2: strict < pushes it out of the core
        _, d = full_search([5.0], cb)
        assert region_fractions([d], cb.delta0, 6.0) == (0.0, 1.0, 0.0)

    def test_beyond_threshold(self):
        cb = Codebook([[0.0], [10.0]])
        _, d = full_search([30.0], cb)
        assert region_fractions([d], cb.delta0, 6.0) == (0.0, 0.0, 1.0)


class TestChooseDeltaHat:
    def test_zeros_clamp_to_half_delta0(self):
        cb = Codebook([[0.0], [10.0]])
        sample = np.array([[0.0], [10.0], [0.0]])
        got = choose_delta_hat(cb, sample, percentile=99)
        assert got == np.nextafter(5.0, math.inf)

    def test_nearest_rank_percentile(self):
        # delta0/2 = 0.1 keeps the clamp out of the way; nearest dists are 1..100
        cb = Codebook([[0.0], [-0.2]])
        sample = np.arange(1, 101, dtype=np.float64)[:, None]
        assert choose_delta_hat(cb, sample, percentile=99) == 99.0
        assert choose_delta_hat(cb, sample, percentile=100) == 100.0

    def test_monotone_in_percentile(self):
        rng = np.random.default_rng(53)
        cb = Codebook(rng.uniform(0, 100, size=(8, 2)))
        sample = rng.uniform(0, 100, size=(200, 2))
        vals = [choose_delta_hat(cb, sample, percentile=p) for p in (50, 75, 90, 99, 100)]
        assert vals == sorted(vals)

    def test_empty_sample_rejected(self):
        cb = Codebook([[0.0], [10.0]])
        with pytest.raises(ValueError, match="non-empty"):
            choose_delta_hat(cb, np.empty((0, 1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        # a NaN row used to give the delta0/2 floor at percentile 100, an inf row inf
        cb = grid_codebook(64)
        sample = clustered_dataset(cb, 0.6 * cb.delta0, 50, seed=2)
        sample[17, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            choose_delta_hat(cb, sample, percentile=100)

    @pytest.mark.parametrize("percentile", [0, -5, 100.5, math.nan])
    def test_bad_percentile_rejected_before_the_pass(self, monkeypatch, percentile):
        cb = grid_codebook(64)
        sample = clustered_dataset(cb, 0.6 * cb.delta0, 50, seed=2)

        def no_pass(queries, vectors, radius):
            raise AssertionError("a distance pass ran before the percentile check")

        monkeypatch.setattr(kernels, "window_tiles", no_pass)
        with pytest.raises(ValueError, match="percentile"):
            choose_delta_hat(cb, sample, percentile=percentile)

    def test_nearest_distances_is_every_rows_nearest(self):
        cb = grid_codebook(64)
        base = clustered_dataset(cb, 0.6 * cb.delta0, 100, seed=3)
        sample = np.vstack([base, base[::-1], base[:7]])
        want = [full_search(x, cb)[1] for x in sample]
        assert nearest_distances(cb, sample).tolist() == want

    @pytest.mark.parametrize("percentile", [1, 50, 99, 100])
    def test_equals_the_full_sample_percentile(self, percentile):
        # the pass over distinct rows, gathered back, gives every row's distance
        cb = grid_codebook(64)
        rng = np.random.default_rng(8)
        base = clustered_dataset(cb, 0.6 * cb.delta0, 300, seed=8)
        sample = np.vstack([base, base[rng.integers(0, 300, size=900)]])[rng.permutation(1200)]
        _, nearest = kernels.nearest_many(sample, cb.vectors)
        want = delta_hat_from_nearest(nearest, cb.delta0, percentile)
        assert choose_delta_hat(cb, sample, percentile=percentile) == want


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(delta_hat=0.0)
        with pytest.raises(ValueError):
            EncoderConfig(delta_hat=-1.0)

    def test_defaults(self):
        cfg = EncoderConfig(delta_hat=1.0)
        assert cfg.master_seed == 0
        assert sub2_budget(64) == 24  # ceil(3 * sqrt(64))

    @pytest.mark.parametrize("seed", [1.5, -1, "1", None, True], ids=repr)
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ValueError, match="master_seed"):
            EncoderConfig(delta_hat=1.0, master_seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert EncoderConfig(delta_hat=1.0, master_seed=np.int64(7)).master_seed == 7

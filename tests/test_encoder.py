"""Hybrid encoder: stage contracts, exactness, metering, thresholds."""

import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from hqvq import (
    Codebook,
    EncodePath,
    EncoderConfig,
    QueryMeter,
    build_neighborhoods,
    choose_delta_hat,
    derive_rng,
    encode,
    encode_sub1,
    encode_sub2,
    full_search,
    grid_codebook,
)
from hqvq.codebook import distances_to_codebook
from hqvq.encoder import sub1_iterations, sub2_budget
from hqvq.grover import marked_set_from_distances
from hqvq.pipeline import region_fractions


def make_setup(n=64, delta_hat_factor=1.2, seed=0):
    cb = grid_codebook(n)
    delta_hat = delta_hat_factor * cb.delta0 / 2.0
    cfg = EncoderConfig(delta_hat=delta_hat, master_seed=seed)
    table = build_neighborhoods(cb, delta_hat)
    return cb, cfg, table


def marked_count(x, cb: Codebook, delta: float) -> int:
    return marked_set_from_distances(distances_to_codebook(x, cb), delta).t


def line_codebook(n: int) -> Codebook:
    return Codebook(np.arange(n, dtype=np.float64)[:, None] * 10.0)


def rounded_midpoint(rng: np.random.Generator, k: int):
    """Two-codevector codebook and the midpoint x of its pair.

    Draws pairs until rounding puts x strictly inside delta0/2 of both ends
    (stage 1 then marks t = 2), or 400 pairs are spent.
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


class TestSub1:
    def test_near_codevector_found_with_high_frequency(self):
        cb = grid_codebook(256)
        dvec = distances_to_codebook(cb.vectors[5] + np.array([0.01, -0.02]), cb)
        hits = 0
        trials = 10_000
        for i in range(trials):
            meter = QueryMeter()
            got = encode_sub1(dvec, cb, derive_rng(1, i), meter)
            hits += got == 5
        assert hits / trials >= 0.999  # closed form: ~0.99995

    def test_far_input_never_found(self):
        cb, _, _ = make_setup(16)
        x = cb.vectors[0] + np.array([4.9, 4.9])  # min distance > delta0/2 = 5
        dvec = distances_to_codebook(x, cb)
        for i in range(200):
            assert encode_sub1(dvec, cb, derive_rng(2, i), QueryMeter()) is None

    def test_meter_contract(self):
        cb, _, _ = make_setup(64)
        meter = QueryMeter()
        encode_sub1(distances_to_codebook(cb.vectors[3], cb), cb, derive_rng(3, 0), meter)
        assert meter.grover_iterations == sub1_iterations(64) == math.floor(math.pi / 4 * 8)
        assert meter.classical_distance_evals == 1

    def test_returned_index_is_unique_optimum(self):
        rng = np.random.default_rng(44)
        cb = Codebook(rng.uniform(0, 100, size=(32, 2)))
        for i in range(300):
            x = rng.uniform(0, 100, size=2)
            meter = QueryMeter()
            got = encode_sub1(distances_to_codebook(x, cb), cb, derive_rng(4, i), meter)
            if got is not None:
                oi, _ = full_search(x, cb)
                assert got == oi
                assert marked_count(x, cb, cb.delta0 / 2) == 1

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="stage 1 marks both ends of a rounded midpoint as closer than delta0/2",
    )
    def test_midpoint_stage1_accepts_only_the_full_search_index(self):
        # encode's index is right regardless; the defect is that stage 1
        # accepts the other end too, so the path and meter depend on the seed
        cb, x = midpoint_case()
        dvec = distances_to_codebook(x, cb)
        oracle, _ = full_search(x, cb)
        got = {encode_sub1(dvec, cb, derive_rng(seed, 0), QueryMeter()) for seed in range(40)}
        assert got <= {oracle, None}

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
        delta_hat = 1.5
        cfg = EncoderConfig(delta_hat=delta_hat, master_seed=0)
        table = build_neighborhoods(cb, delta_hat)
        assert list(table.lists[3]) == [3]
        dvec = distances_to_codebook([100.6], cb)  # inside the shell of codevector 3 only
        for i in range(100):
            meter = QueryMeter()
            got = encode_sub2(dvec, table, cfg, derive_rng(5, i), meter)
            if got is not None:
                assert got == 3

    def test_empty_marked_set_exhausts_budget(self):
        # the budget is stage 2's only stopping rule; small N hold the fewest
        # iterations per round, so they run the most rounds before it binds
        for n in (2, 3, 64):
            cb = grid_codebook(n) if n == 64 else line_codebook(n)
            delta_hat = 1.2 * cb.delta0 / 2.0
            cfg = EncoderConfig(delta_hat=delta_hat, master_seed=0)
            table = build_neighborhoods(cb, delta_hat)
            x = np.full(cb.k, 305.0)  # far beyond every codevector's threshold
            assert marked_count(x, cb, cfg.delta_hat) == 0
            budget = sub2_budget(n)
            dvec = distances_to_codebook(x, cb)
            for i in range(200):
                meter = QueryMeter()
                trace = []
                got = encode_sub2(dvec, table, cfg, derive_rng(6, i), meter, trace=trace)
                assert got is None
                assert meter.grover_iterations <= budget
                assert meter.classical_distance_evals == len(trace)

    def test_meter_charges_every_drawn_iteration(self):
        # encode_sub2 is the only place stage-2 iterations are charged: the
        # meter equals the sum of the traced draws, which never exceeds the budget
        cb, cfg, table = make_setup(64)
        budget = sub2_budget(64)
        rng = np.random.default_rng(53)
        shell = cb.vectors[20] + (cb.delta0 / 2.0) * 1.1 / math.sqrt(2.0)
        points = [shell, np.array([305.0, 305.0]), *rng.uniform(-20, 100, size=(8, 2))]
        for p, x in enumerate(points):
            dvec = distances_to_codebook(x, cb)
            for i in range(50):
                meter = QueryMeter()
                trace = []
                encode_sub2(dvec, table, cfg, derive_rng(15, 50 * p + i), meter, trace=trace)
                assert meter.grover_iterations == sum(r["j"] for r in trace)
                assert meter.grover_iterations <= budget

    def test_success_charges_neighborhood_scan(self):
        cb = Codebook([[0.0], [1.0], [2.0], [100.0]])
        cfg = EncoderConfig(delta_hat=1.5, master_seed=0)
        table = build_neighborhoods(cb, 1.5)
        dvec = distances_to_codebook([0.7], cb)
        meter = QueryMeter()
        trace = []
        got = encode_sub2(dvec, table, cfg, derive_rng(7, 0), meter, trace=trace)
        assert got == trace[-1]["h"]
        assert 1 in table.lists[got]  # the optimum lies in the verified index's list
        assert meter.classical_distance_evals == len(trace) + len(table.lists[got])

    def test_table_threshold_mismatch_rejected(self):
        cb, cfg, table = make_setup(16)
        other = EncoderConfig(delta_hat=cfg.delta_hat * 1.01, master_seed=0)
        with pytest.raises(ValueError, match="does not match"):
            dvec = distances_to_codebook(cb.vectors[0], cb)
            encode_sub2(dvec, table, other, derive_rng(8, 0), QueryMeter())

    def test_mean_iterations_within_bbht_bound(self):
        # smaller cousin of the acceptance check: t=4 solutions out of n=256
        n, t = 256, 4
        cb = line_codebook(n)
        delta_hat = 10.0 * t - 5.0  # marks exactly the first t codevectors of x=0
        cfg = EncoderConfig(delta_hat=delta_hat, master_seed=0)
        table = build_neighborhoods(cb, delta_hat)
        x = np.array([0.0])
        assert marked_count(x, cb, delta_hat) == t
        dvec = distances_to_codebook(x, cb)
        spent = []
        for i in range(400):
            meter = QueryMeter()
            encode_sub2(dvec, table, cfg, derive_rng(9, i), meter)
            spent.append(meter.grover_iterations)
        assert np.mean(spent) <= 1.1 * 2.25 * math.sqrt(n / t)


class TestEncode:
    def test_exact_codevector_hits_sub1(self):
        cb, cfg, table = make_setup(64)
        out = encode(distances_to_codebook(cb.vectors[7], cb), cb, table, cfg, derive_rng(10, 0))
        assert out.index == 7
        assert out.path == EncodePath.SUB1

    def test_exactness_over_random_instances(self):
        rng = np.random.default_rng(50)
        for n in (16, 64):
            for _ in range(10):
                cb = Codebook(rng.uniform(0, 50, size=(n, 2)))
                delta_hat = cb.delta0 / 2 * rng.uniform(1.0, 3.0)
                cfg = EncoderConfig(delta_hat=delta_hat, master_seed=0)
                table = build_neighborhoods(cb, delta_hat)
                for j in range(20):
                    x = rng.uniform(-10, 60, size=2)
                    out = encode(distances_to_codebook(x, cb), cb, table, cfg, derive_rng(11, j))
                    assert out.index == full_search(x, cb)[0]

    def test_shell_input_never_wrong(self):
        cb, cfg, table = make_setup(64)
        # place x in the shell: between delta0/2 and delta_hat of its nearest
        offset = np.array([1.0, 1.0]) / math.sqrt(2.0)
        x = cb.vectors[20] + offset * (cb.delta0 / 2.0) * 1.1
        dvec = distances_to_codebook(x, cb)
        for i in range(200):
            out = encode(dvec, cb, table, cfg, derive_rng(12, i))
            assert out.path in (EncodePath.SUB2, EncodePath.CLASSICAL_FALLBACK)
            assert out.index == full_search(x, cb)[0]

    def test_fallback_meters_full_scan(self):
        cb, cfg, table = make_setup(16)
        x = np.array([500.0, 500.0])
        out = encode(distances_to_codebook(x, cb), cb, table, cfg, derive_rng(13, 0))
        assert out.path == EncodePath.CLASSICAL_FALLBACK
        # sub1 verify (1) + sub2 rounds (>=1) + fallback full scan (16)
        assert out.meter.classical_distance_evals >= 1 + 1 + 16

    def test_total_iteration_budget(self):
        cb, cfg, table = make_setup(64)
        cap = sub1_iterations(64) + sub2_budget(64)
        rng = np.random.default_rng(51)
        for i in range(300):
            x = rng.uniform(-20, 100, size=2)
            out = encode(distances_to_codebook(x, cb), cb, table, cfg, derive_rng(14, i))
            assert out.meter.grover_iterations <= cap

    def test_midpoint_of_two_codevectors_matches_full_search(self):
        # rounding puts x = (a + b) / 2 strictly inside delta0/2 of both a and b,
        # so stage 1 sees t = 2; the index must still be full search's
        cb, x = midpoint_case()
        cfg = EncoderConfig(delta_hat=cb.delta0, master_seed=0)
        table = build_neighborhoods(cb, cb.delta0)
        oracle, _ = full_search(x, cb)
        dvec = distances_to_codebook(x, cb)
        got = {encode(dvec, cb, table, cfg, derive_rng(seed, 0)).index for seed in range(40)}
        assert got == {oracle}

    def test_deterministic_for_seed(self):
        cb, cfg, table = make_setup(64)
        rng = np.random.default_rng(52)
        for i in range(50):
            dvec = distances_to_codebook(rng.uniform(0, 80, size=2), cb)
            a = encode(dvec, cb, table, cfg, derive_rng(99, i))
            b = encode(dvec, cb, table, cfg, derive_rng(99, i))
            assert a.index == b.index and a.path == b.path
            assert a.meter == b.meter


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
    cfg = EncoderConfig(delta_hat=delta_hat, master_seed=0)
    table = build_neighborhoods(cb, delta_hat)
    dvec = distances_to_codebook(x, cb)
    oracle, _ = full_search(x, cb)
    got = {encode(dvec, cb, table, cfg, derive_rng(s, 0)).index for s in range(5)}
    assert got == {oracle}


class TestClassifyRegion:
    def test_on_codevector(self):
        cb, cfg, _ = make_setup(16)
        _, d = full_search(cb.vectors[0], cb)
        assert region_fractions([d], cb.delta0, cfg.delta_hat) == (1.0, 0.0, 0.0)

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

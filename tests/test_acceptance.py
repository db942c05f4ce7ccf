"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.
"""

import math

import numpy as np
import pytest

from reference_encoder import run_stage, seeded_draws, trials
from reference_grover import statevector_distribution

from hqvq import (
    Codebook,
    EncodePath,
    EncoderConfig,
    build_neighborhoods,
    clustered_dataset,
    decode_image,
    encode,
    encode_image,
    encode_vectors,
    full_search,
    grid_codebook,
    load_pgm,
    parse_stream,
    report,
    save_pgm,
    serialize_stream,
    space_bits,
    train_codebook,
)
from hqvq.codebook import distances_to_codebook
from hqvq.encoder import PATHS
from hqvq.grover import marked_probability, marked_set_from_distances
from hqvq.image import BlockGeometry, blockify, deblockify
from hqvq.neighborhood import NeighborhoodTable, StripDomains


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance {num:>2}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


def line_codebook(n: int, spacing: float = 10.0) -> Codebook:
    return Codebook(np.arange(n, dtype=np.float64)[:, None] * spacing)


@pytest.fixture(scope="module")
def exactness_run():
    """Shared workload for criteria 1 and 7: ~1080 instances x 10 seeds.

    ``encode`` takes its index from the distance row, so criterion 1 also
    checks that every SUB1 block's only mark within its codevector's own
    half-distance (``Codebook.nearest_other`` / 2) is the oracle, and
    criterion 7 that every index marked at delta_hat of a SUB2 block lists
    the oracle among its neighbors.
    """
    rng = np.random.default_rng(20240)
    mismatches = 0
    sub1_successes = 0
    sub1_wrong_candidates = 0
    sub2_successes = 0
    soundness_violations = 0
    encodes = 0
    for n in (16, 64, 256):
        for k in (1, 2, 4):
            for _ in range(4):
                cb = Codebook(rng.uniform(0, 60, size=(n, k)))
                delta_hat = cb.delta0 / 2 * rng.uniform(1.05, 3.0)
                table = build_neighborhoods(cb, delta_hat)
                xs = rng.uniform(-10, 70, size=(30, k))
                oracle = [full_search(x, cb)[0] for x in xs]
                dvecs = [distances_to_codebook(x, cb) for x in xs]
                for seed in range(10):
                    batch = encode(xs, cb, table, seeded_draws(seed, len(xs)))
                    for oracle_i, dvec, index, path in zip(oracle, dvecs, batch.facts.index, batch.path):
                        encodes += 1
                        if index != oracle_i:
                            mismatches += 1
                        if PATHS[path] == EncodePath.SUB1:
                            sub1_successes += 1
                            marks = marked_set_from_distances(dvec, cb.nearest_other / 2)
                            if marks.tolist() != [oracle_i]:
                                sub1_wrong_candidates += 1
                        if PATHS[path] == EncodePath.SUB2:
                            sub2_successes += 1
                            for h in marked_set_from_distances(dvec, table.delta_hat):
                                if oracle_i not in set(int(v) for v in table.neighbors(h)):
                                    soundness_violations += 1
    return {
        "encodes": encodes,
        "mismatches": mismatches,
        "sub1_successes": sub1_successes,
        "sub1_wrong_candidates": sub1_wrong_candidates,
        "sub2_successes": sub2_successes,
        "soundness_violations": soundness_violations,
    }


def test_criterion_1_exactness(exactness_run):
    r = exactness_run
    _verdict(
        1,
        "exactness vs full search",
        r["mismatches"] == 0
        and r["encodes"] >= 10_000
        and r["sub1_wrong_candidates"] == 0
        and r["sub1_successes"] > 0,
        f"{r['encodes']} encodes, {r['mismatches']} mismatches, "
        f"{r['sub1_successes']} stage-1 successes, "
        f"{r['sub1_wrong_candidates']} stage-1 blocks whose only mark is not the oracle",
    )


def test_criterion_2_sub1_success_rate():
    cb = grid_codebook(256)
    table = build_neighborhoods(cb, 0.6 * cb.delta0)
    x = cb.vectors[40] + np.array([0.013, -0.009])
    assert full_search(x, cb)[0] == 40
    count = 10_000
    # the paper's stage 1, over all N
    _, accepted, _ = run_stage(1, trials(x, count), cb, table, 77, paper=True)
    freq = int(np.count_nonzero(accepted)) / count
    # closed form: sin^2(25 asin(1/16)) ~ 0.99995
    _verdict(2, "stage-1 success rate at N=256", freq >= 0.999, f"freq={freq}")


def test_criterion_3_headline_query_bound():
    ok = True
    details = []
    for n in (64, 256, 1024):
        cb = grid_codebook(n)
        delta_hat = 0.6 * cb.delta0
        data = clustered_dataset(cb, delta_hat, 2000, seed=n)
        cfg = EncoderConfig(delta_hat=delta_hat, master_seed=5)
        table = build_neighborhoods(cb, delta_hat)
        _, stats, _ = encode_vectors(data, cb, table, cfg)
        sqrt_n = math.sqrt(n)
        ratio_pure = stats.mean_grover_iterations / (45.0 * sqrt_n)
        ok &= stats.mean_grover_iterations < sqrt_n and ratio_pure < 1.0 / 40.0
        details.append(
            f"N={n}: mean={stats.mean_grover_iterations:.2f} sqrtN={sqrt_n:.1f} "
            f"pure_ratio={ratio_pure:.4f}"
        )
    _verdict(3, "mean iterations below sqrt(N)", ok, "; ".join(details))


def test_criterion_4_bbht_bound():
    # the bound over the paper's register of N, and over the window's of 2 W_t
    # (here W_t = t: the window holds the t marked codevectors alone)
    n = 1024
    cb = line_codebook(n)
    ok = True
    details = []
    for t in (1, 4, 16):
        delta_hat = 10.0 * t - 5.0  # marks exactly the t codevectors nearest to x=0
        table = build_neighborhoods(cb, delta_hat)
        for paper in (True, False):
            facts, _, meter = run_stage(2, trials([0.0], 1000), cb, table, t, paper=paper)
            domain = n if paper else 2 * t
            ok &= paper or bool(np.all(facts.domain_t == t))
            mean = float(np.mean(meter.grover_iterations))
            bound = 1.1 * (9.0 / 4.0) * math.sqrt(domain / t)
            ok &= mean <= bound
            details.append(f"t={t} D={domain}: mean={mean:.2f} bound={bound:.2f}")
    _verdict(4, "stage-2 iteration bound", ok, "; ".join(details))


def test_criterion_5_simulator_cross_validation():
    rng = np.random.default_rng(555)
    worst_gap = 0.0
    worst_norm = 0.0
    for n in range(1, 65):
        max_j = int(2 * math.sqrt(n))
        for t in range(n + 1):
            idx = np.sort(rng.choice(n, size=t, replace=False))
            for j in range(max_j + 1):
                probs = statevector_distribution(idx, n, j)
                # the marked share splits evenly over the marked indices, the rest over the others
                p = float(marked_probability(t, n, j))
                expect = np.full(n, (1.0 - p) / max(n - t, 1))
                expect[idx] = p / max(t, 1)
                worst_gap = max(worst_gap, float(np.abs(probs - expect).max()))
                worst_norm = max(worst_norm, abs(float(probs.sum()) - 1.0))
    _verdict(
        5,
        "statevector matches marked_probability",
        worst_gap <= 1e-9 and worst_norm <= 1e-12,
        f"max gap={worst_gap:.2e}, max norm err={worst_norm:.2e}",
    )


def test_criterion_6_space_formula():
    # exact value on a constructed table with all-singleton lists
    # (no valid delta_hat builds one: the closest pair is in each other's lists)
    t4 = NeighborhoodTable(
        delta_hat=50.0, count=np.ones(4, dtype=np.int64), keys=5 * np.arange(4), order=np.arange(4),
        domains=StripDomains(axis=10.0 * np.arange(4), sub1_half=np.ones(4), sub2_half=50.0),
    )
    exact_ok = space_bits(t4) == 986  # lists 8, stage 1's 8 ends and 4 + 9 piece entries, 34 bits each

    # doubling N with bounded |lists|: log-log slope tracks the N*log2(N) model
    sizes = [64, 128, 256, 512, 1024]
    measured = []
    model = []
    for n in sizes:
        cb = line_codebook(n)
        table = build_neighborhoods(cb, 7.5)  # radius 15: three-wide lists
        assert max(len(table.neighbors(i)) for i in range(table.n)) == 3
        measured.append(space_bits(table))
        model.append(n * (max(1, (n - 1).bit_length()) + 32))
    slope_ok = True
    gaps = []
    for i in range(len(sizes) - 1):
        ms = math.log(measured[i + 1] / measured[i])
        ref = math.log(model[i + 1] / model[i])
        gaps.append(abs(ms / ref - 1.0))
        slope_ok &= gaps[-1] <= 0.15
    _verdict(
        6,
        "space accounting",
        exact_ok and slope_ok,
        f"N=4 singleton bits={space_bits(t4)}, max slope gap={max(gaps):.3f}",
    )


def test_criterion_7_neighborhood_soundness(exactness_run):
    r = exactness_run
    _verdict(
        7,
        "stage-2 optimum inside scanned neighborhood",
        r["soundness_violations"] == 0 and r["sub2_successes"] > 0,
        f"{r['sub2_successes']} stage-2 successes, {r['soundness_violations']} violations",
    )


def test_criterion_8_partition_ranges():
    cb = grid_codebook(256)
    delta_hat = 0.6 * cb.delta0
    data = clustered_dataset(cb, delta_hat, 2000, seed=88)
    cfg = EncoderConfig(delta_hat=delta_hat, master_seed=6)
    table = build_neighborhoods(cb, delta_hat)
    _, stats, _ = encode_vectors(data, cb, table, cfg)
    ok = (
        0.80 <= stats.a <= 0.99
        and 0.01 <= stats.b <= 0.19
        and stats.c < 0.01
        and abs(stats.a + stats.b + stats.c - 1.0) <= 1e-12
    )
    _verdict(
        8,
        "synthetic partition fractions",
        ok,
        f"a={stats.a} b={stats.b} c={stats.c}",
    )


def test_criterion_9_codec_round_trip(tmp_path):
    rng = np.random.default_rng(99)
    img = rng.integers(0, 256, size=(24, 24), dtype=np.uint8)
    geom = BlockGeometry(2, 1)
    vectors = blockify(img, geom)
    cb = train_codebook(vectors, 16, seed=9)
    delta_hat = cb.delta0  # comfortably above delta0/2
    cfg = EncoderConfig(delta_hat=delta_hat, master_seed=4)
    table = build_neighborhoods(cb, delta_hat)

    stream, _ = encode_image(img, cb, table, cfg, geom=geom)
    decoded = decode_image(stream, cb)
    oracle_idx = np.array([full_search(v, cb)[0] for v in vectors])
    oracle_img = deblockify(cb.vectors[oracle_idx], geom, 24, 24)
    pixels_ok = np.array_equal(decoded, oracle_img)

    blob = serialize_stream(stream)
    stream_ok = parse_stream(blob) == stream and serialize_stream(parse_stream(blob)) == blob

    p = tmp_path / "img.pgm"
    save_pgm(img, p)
    pgm_ok = np.array_equal(load_pgm(p), img)
    save_pgm(load_pgm(p), tmp_path / "img2.pgm")
    pgm_ok &= p.read_bytes() == (tmp_path / "img2.pgm").read_bytes()

    _verdict(
        9,
        "codec round trips",
        pixels_ok and stream_ok and pgm_ok,
        f"pixels={pixels_ok} stream={stream_ok} pgm={pgm_ok}",
    )


def test_criterion_10_determinism():
    rng = np.random.default_rng(1010)
    img = rng.integers(0, 256, size=(20, 20), dtype=np.uint8)
    geom = BlockGeometry(2, 1)
    vectors = blockify(img, geom)
    cb = train_codebook(vectors, 8, seed=2)
    delta_hat = cb.delta0
    cfg = EncoderConfig(delta_hat=delta_hat, master_seed=123)
    table = build_neighborhoods(cb, delta_hat)

    s1, st1 = encode_image(img, cb, table, cfg, geom=geom)
    s2, st2 = encode_image(img, cb, table, cfg, geom=geom)
    ok = (
        serialize_stream(s1) == serialize_stream(s2)
        and st1 == st2
        and report(st1, cb.n) == report(st2, cb.n)
    )
    _verdict(10, "seeded runs byte-identical", ok)

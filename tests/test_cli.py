"""Command-line workflow: train -> encode -> decode -> stats -> bench.

It needs only numpy and pytest, so it also runs where the test extras
hypothesis and scipy are not installed.
"""

from hashlib import sha256

import numpy as np
import pytest

from hqvq import (
    BlockGeometry, Codebook, EncoderConfig, IndexStream, blockify, build_neighborhoods, choose_delta_hat,
    clustered_dataset, encode_vectors, grid_codebook, kernels, load_codebook, load_pgm, parse_stream, save_codebook,
    save_pgm, serialize_stream, space_bits,
)
from hqvq.cli import main
from reference_encoder import stage1_domain

# `hqvq bench --sizes 64,256 --vectors 500 --seed 3`, byte for byte: refactors that
# must not change an index, a path or a charge keep this text
BENCH_64_256_SEED_3 = """\
n=64
sqrt_n=8.0
vectors=500
mean_grover_iters=1.852
max_grover_iters=12
mean_classical_evals=1.688
max_classical_evals=27
frac_s=0.9
frac_t_minus_s=0.092
frac_i_minus_t=0.008
frac_sub1_marked=0.9
ratio_vs_sqrt_n=0.2315
ops_per_block=3.54
ratio_ops_vs_sqrt_n=0.4425
mean_table_reads=11.586
mean_sub1_domain=6.774
mean_sub2_domain=8.108
paper_mean_grover_iters=6.784
paper_mean_classical_evals=2.68
paper_ops_per_block=9.464
ratio_vs_pure_quantum=0.0051444444444444445
count_sub1=439
count_sub2=57
count_fallback=4

n=256
sqrt_n=16.0
vectors=500
mean_grover_iters=2.81
max_grover_iters=19
mean_classical_evals=1.868
max_classical_evals=40
frac_s=0.9
frac_t_minus_s=0.092
frac_i_minus_t=0.008
frac_sub1_marked=0.9
ratio_vs_sqrt_n=0.175625
ops_per_block=4.678
ratio_ops_vs_sqrt_n=0.292375
mean_table_reads=13.946
mean_sub1_domain=13.636
mean_sub2_domain=16.428
paper_mean_grover_iters=13.89
paper_mean_classical_evals=4.624
paper_ops_per_block=18.514
ratio_vs_pure_quantum=0.003902777777777778
count_sub1=444
count_sub2=52
count_fallback=4
"""

# `hqvq encode --report` of the ``image_path`` image with the codebook of
# `hqvq train -n 8 --seed 3`, at --seed 3 and --seed 7, byte for byte
ENCODE_SEED_3 = """\
n=8
sqrt_n=2.8284271247461903
vectors=128
mean_grover_iters=1.1328125
max_grover_iters=10
mean_classical_evals=2.40625
max_classical_evals=15
frac_s=0.328125
frac_t_minus_s=0.65625
frac_i_minus_t=0.015625
frac_sub1_marked=0.6171875
ratio_vs_sqrt_n=0.4005097002814429
ops_per_block=3.5390625
ratio_ops_vs_sqrt_n=1.2512475463965078
mean_table_reads=11.4921875
mean_sub1_domain=1.6796875
mean_sub2_domain=3.3984375
paper_mean_grover_iters=2.5703125
paper_mean_classical_evals=3.7109375
paper_ops_per_block=6.28125
ratio_vs_pure_quantum=0.008900215561809843
count_sub1=79
count_sub2=47
count_fallback=2
delta_hat=16.066614287850317
psnr=34.93372616634963
"""

ENCODE_SEED_7 = """\
n=8
sqrt_n=2.8284271247461903
vectors=128
mean_grover_iters=1.109375
max_grover_iters=10
mean_classical_evals=2.4453125
max_classical_evals=17
frac_s=0.328125
frac_t_minus_s=0.65625
frac_i_minus_t=0.015625
frac_sub1_marked=0.6171875
ratio_vs_sqrt_n=0.39222329268941303
ops_per_block=3.5546875
ratio_ops_vs_sqrt_n=1.2567718181245278
mean_table_reads=11.4921875
mean_sub1_domain=1.6796875
mean_sub2_domain=3.3984375
paper_mean_grover_iters=2.5546875
paper_mean_classical_evals=3.640625
paper_ops_per_block=6.1953125
ratio_vs_pure_quantum=0.008716073170875846
count_sub1=79
count_sub2=47
count_fallback=2
delta_hat=16.066614287850317
psnr=34.93372616634963
"""


# `hqvq stats --dump-neighbors` of the ``image_path`` image, byte for byte: with the
# codebook of `hqvq train -n 8` (default seed), and with the 5x5 lattice of spacing 50
# at --delta-hat 40, whose lists hold codevectors of equal projection (each
# anti-diagonal's); the lists are derived from the table's keys and must stay in index order
STATS_TRAINED = """\
n=8
k=2
vectors=128
delta0=5.147815070493501
delta_hat=16.003744396569946
frac_s=0.2421875
frac_t_minus_s=0.7421875
frac_i_minus_t=0.015625
inf_omega=3
max_omega=5
mean_omega=4.25
space_bits=3535
0: 0 3 7
1: 1 2 4 5 6
2: 1 2 4 5 6
3: 0 3 7
4: 1 2 4 5 6
5: 1 2 4 5 6
6: 1 2 4 5 6
7: 0 3 7
"""

STATS_LATTICE = """\
n=25
k=2
vectors=128
delta0=50.0
delta_hat=40.0
frac_s=0.6171875
frac_t_minus_s=0.3828125
frac_i_minus_t=0.0
inf_omega=4
max_omega=9
mean_omega=6.76
space_bits=19980
0: 0 1 5 6
1: 0 1 2 5 6 7
2: 1 2 3 6 7 8
3: 2 3 4 7 8 9
4: 3 4 8 9
5: 0 1 5 6 10 11
6: 0 1 2 5 6 7 10 11 12
7: 1 2 3 6 7 8 11 12 13
8: 2 3 4 7 8 9 12 13 14
9: 3 4 8 9 13 14
10: 5 6 10 11 15 16
11: 5 6 7 10 11 12 15 16 17
12: 6 7 8 11 12 13 16 17 18
13: 7 8 9 12 13 14 17 18 19
14: 8 9 13 14 18 19
15: 10 11 15 16 20 21
16: 10 11 12 15 16 17 20 21 22
17: 11 12 13 16 17 18 21 22 23
18: 12 13 14 17 18 19 22 23 24
19: 13 14 18 19 23 24
20: 15 16 20 21
21: 15 16 17 20 21 22
22: 16 17 18 21 22 23
23: 17 18 19 22 23 24
24: 18 19 23 24
"""

# ``batch_digest`` of ``encode_vectors`` at master seeds 1 and 2: "bench" is the
# `hqvq bench --vectors 500` grid at N = 256, its vectors drawn with the same seed;
# "image" is the ``image_path`` image's 2 x 1 blocks with the codebook of
# `hqvq train -n 8 --seed 3` at ``choose_delta_hat``.  Per-block facts and charges,
# so a refactor that must keep every block's bits keeps these
ENCODE_DIGESTS = {
    ("bench", 1): "879aa33604c91edeb3493ff97fe6ea15aa57002b37b78b1b8ee966faef9c952e",
    ("bench", 2): "f7240ca254e7fb4a12ab199ee85a757e5a5c4067620dfc293df2d6511c51651b",
    ("image", 1): "7bbfd8d39aae714e01dca5c3a803b7dafdc47927590b083be73269183143b17e",
    ("image", 2): "f868aa907881bed908759cbd278ac6a2c7ae5c6e324996a8da2972cd456ce5fc",
}

# ``paper_digest`` of ``encode_vectors`` on the ``image_path`` image's 2 x 2 blocks (k = 4)
# with the codebook of `hqvq train -n 16 --block-w 2 --block-h 2 --seed 3` at
# ``choose_delta_hat``, at master seeds 1 and 2: the indices, t, pick and the paper's
# three counters, which a change to the k >= 3 search domains must keep
PAPER_DIGESTS_2X2 = {
    1: "3c1001f702364fb7f6035c988a46f7aed3906347b1ca83f1862c5afee087e659",
    2: "77f1960f2fb4ba2109081e4c6fb86a8600c9e53763014012f15f8b2e854169d0",
}


# ``codec_digest`` of ``encode_vectors`` on the ``image_path`` image's blocks with the codebook
# of `hqvq train -n 16 --block-w W --block-h H --seed 3` at ``choose_delta_hat``, at master
# seeds 1 and 2: 2 x 2 blocks (k = 4, the ``PAPER_DIGESTS_2X2`` codebook) and 3 x 1 blocks
# (k = 3, whose split axis weights the middle component 0).  Each block's path, the codec's
# three counters and both search domains, then ``space_bits`` of the table: a change to how
# the k >= 3 domains are held or charged, that must not move a count, keeps these
CODEC_DIGESTS_K3_K4 = {
    ("2x2", 1): "01e23b2565ace23664787de2c8fc5694e892e81b812bd8384413996d38ed7580",
    ("2x2", 2): "3e8090a5c3b5e394e4d4b6e8bdc49634a630a1bdcade2c6630c1b39afe4ff8ad",
    ("3x1", 1): "93ab7e25a46de040666b086e6af4967dacaf8388551878671b0349e2d30d4e2a",
    ("3x1", 2): "ca312dae41749a7b253e585dea28304bb25f80f3ee897955f723f79ca3461f7c",
}


def paper_digest(indices, batch) -> str:
    """SHA-256 over each block's index, t and pick and the paper's three counters, as int64."""
    f, p = batch.facts, batch.paper
    h = sha256()
    for a in (indices, f.t, f.pick, p.grover_iterations, p.classical_distance_evals, p.table_reads):
        h.update(np.asarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


def batch_digest(indices, batch) -> str:
    """SHA-256 over each block's index, path, both meters' counters and its facts, as int64."""
    f, m, p = batch.facts, batch.meter, batch.paper
    h = sha256()
    for a in (
        indices, batch.path,
        m.grover_iterations, m.classical_distance_evals, m.table_reads,
        p.grover_iterations, p.classical_distance_evals, p.table_reads,
        f.domain_s, f.domain_t, f.t, f.pick,
    ):
        h.update(np.asarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


def codec_digest(batch, bits: int) -> str:
    """SHA-256 over each block's path, the codec's three counters and both domains, as int64, then ``bits``."""
    f, m = batch.facts, batch.meter
    h = sha256()
    for a in (batch.path, m.grover_iterations, m.classical_distance_evals, m.table_reads, f.domain_s, f.domain_t):
        h.update(np.asarray(a, dtype=np.int64).tobytes())
    h.update(str(bits).encode())
    return h.hexdigest()


def report_values(text: str) -> dict:
    """A report's key=value lines as a dict of strings."""
    return dict(ln.split("=", 1) for ln in text.splitlines())


@pytest.fixture()
def image_path(tmp_path):
    rng = np.random.default_rng(81)
    # two flat-ish tonal regions so a small codebook represents blocks well
    img = np.empty((16, 16), dtype=np.uint8)
    img[:8] = rng.integers(20, 40, size=(8, 16))
    img[8:] = rng.integers(180, 220, size=(8, 16))
    path = tmp_path / "input.pgm"
    save_pgm(img, path)
    return path


def run_workflow(tmp_path, image_path, seed="3"):
    cb = tmp_path / "cb.txt"
    stream = tmp_path / "img.vqix"
    out = tmp_path / "decoded.pgm"
    rep = tmp_path / "report.txt"
    assert main(["train", str(image_path), "-n", "8", "-o", str(cb), "--seed", seed]) == 0
    assert (
        main(
            [
                "encode", str(image_path), str(cb),
                "-o", str(stream), "--report", str(rep), "--seed", seed,
            ]
        )
        == 0
    )
    assert main(["decode", str(stream), str(cb), "-o", str(out)]) == 0
    return cb, stream, out, rep


class TestWorkflow:
    def test_full_round_trip(self, tmp_path, image_path):
        cb, stream, out, rep = run_workflow(tmp_path, image_path)
        decoded = load_pgm(out)
        original = load_pgm(image_path)
        assert decoded.shape == original.shape
        text = rep.read_text()
        assert "mean_grover_iters=" in text
        assert "psnr=" in text
        assert "ratio_vs_sqrt_n=" in text

    def test_two_runs_byte_identical(self, tmp_path, image_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        _, sa, oa, ra = run_workflow(a, image_path)
        _, sb, ob, rb = run_workflow(b, image_path)
        assert sa.read_bytes() == sb.read_bytes()
        assert oa.read_bytes() == ob.read_bytes()
        assert ra.read_text() == rb.read_text()

    def test_explicit_delta_hat(self, tmp_path, image_path):
        cb = tmp_path / "cb.txt"
        stream = tmp_path / "s.vqix"
        assert main(["train", str(image_path), "-n", "8", "-o", str(cb)]) == 0
        code = main(
            ["encode", str(image_path), str(cb), "-o", str(stream), "--delta-hat", "1e9"]
        )
        assert code == 0

    def test_stats_command(self, tmp_path, image_path, capsys):
        cb = tmp_path / "cb.txt"
        assert main(["train", str(image_path), "-n", "8", "-o", str(cb)]) == 0
        capsys.readouterr()
        assert main(["stats", str(image_path), str(cb), "--dump-neighbors"]) == 0
        out = capsys.readouterr().out
        assert out == STATS_TRAINED

    def test_stats_dump_of_a_lattice_with_tied_projections_is_pinned(self, tmp_path, image_path, capsys):
        cb = tmp_path / "lattice.txt"
        save_codebook(Codebook([[50.0 * i, 50.0 * j] for i in range(5) for j in range(5)]), cb)
        assert main(["stats", str(image_path), str(cb), "--dump-neighbors", "--delta-hat", "40"]) == 0
        assert capsys.readouterr().out == STATS_LATTICE

    @pytest.mark.parametrize("explicit_delta_hat", [False, True])
    def test_stats_and_encode_report_same_region_fractions(
        self, tmp_path, image_path, capsys, explicit_delta_hat
    ):
        cb = tmp_path / "cb.txt"
        assert main(["train", str(image_path), "-n", "8", "-o", str(cb)]) == 0
        threshold = []
        if explicit_delta_hat:
            threshold = ["--delta-hat", repr(0.75 * load_codebook(cb).delta0)]
        capsys.readouterr()
        assert main(["stats", str(image_path), str(cb)] + threshold) == 0
        stats_out = capsys.readouterr().out
        rep = tmp_path / "report.txt"
        args = ["encode", str(image_path), str(cb), "-o", str(tmp_path / "s.vqix")]
        assert main(args + ["--report", str(rep)] + threshold) == 0

        def fractions(text):
            # the paper's three regions; the encode report adds frac_sub1_marked
            return [ln for ln in text.splitlines() if ln.split("=")[0] in ("frac_s", "frac_t_minus_s", "frac_i_minus_t")]

        assert len(fractions(stats_out)) == 3
        assert fractions(stats_out) == fractions(rep.read_text())

    @pytest.mark.parametrize("threshold", [[], ["--delta-hat", "1e9"]])
    def test_stats_makes_one_nearest_pass(self, tmp_path, image_path, monkeypatch, threshold):
        cb = tmp_path / "cb.txt"
        assert main(["train", str(image_path), "-n", "8", "-o", str(cb)]) == 0
        rows = []
        window_nearest = kernels.window_nearest

        def counting(queries, vectors):
            rows.append(queries.shape[0])
            return window_nearest(queries, vectors)

        monkeypatch.setattr(kernels, "window_nearest", counting)
        assert main(["stats", str(image_path), str(cb)] + threshold) == 0
        distinct = np.unique(blockify(load_pgm(image_path), BlockGeometry()), axis=0)
        assert 0 < distinct.shape[0] < 16 * 16 // 2  # the image repeats some 2x1 blocks
        assert rows == [distinct.shape[0]]  # one pass, one row per distinct block

    def test_bench_report_is_pinned(self, capsys):
        assert main(["bench", "--sizes", "64,256", "--vectors", "500", "--seed", "3"]) == 0
        assert capsys.readouterr().out == BENCH_64_256_SEED_3
        # a property that must hold whatever figures a later change pins:
        # each stage searches each block's window, the paper's stages all N
        for size in BENCH_64_256_SEED_3.split("\n\n"):
            r = report_values(size)
            assert float(r["mean_grover_iters"]) < float(r["paper_mean_grover_iters"])
            assert float(r["mean_sub2_domain"]) <= int(r["n"])

    def test_image_encode_report_is_pinned(self, tmp_path, image_path):
        # the image path: trained float codebook, uint8 blocks and choose_delta_hat
        cb = tmp_path / "cb.txt"
        assert main(["train", str(image_path), "-n", "8", "-o", str(cb), "--seed", "3"]) == 0
        for seed, pinned in (("3", ENCODE_SEED_3), ("7", ENCODE_SEED_7)):
            args = ["encode", str(image_path), str(cb), "-o", str(tmp_path / f"s{seed}.vqix")]
            assert main(args + ["--report", str(tmp_path / f"r{seed}.txt"), "--seed", seed]) == 0
            assert (tmp_path / f"r{seed}.txt").read_text() == pinned
            r = report_values(pinned)
            # properties that hold whatever figures a later change pins:
            # stage 1 marks every block the paper's delta0/2 test marks, and more
            assert float(r["frac_sub1_marked"]) >= float(r["frac_s"])
            # the walks visit a subset of h's list, or of the codebook in a fallback
            assert float(r["mean_classical_evals"]) <= float(r["paper_mean_classical_evals"])
        # the seed drives only the simulated search's cost, never an index
        assert (tmp_path / "s3.vqix").read_bytes() == (tmp_path / "s7.vqix").read_bytes()

    def test_encode_digests_are_pinned(self, tmp_path, image_path):
        # the pinned reports hold means; these pin every block's index, path, charges and facts
        cb = tmp_path / "cb.txt"
        assert main(["train", str(image_path), "-n", "8", "-o", str(cb), "--seed", "3"]) == 0
        trained = load_codebook(cb)
        blocks = blockify(load_pgm(image_path), BlockGeometry())
        grid = grid_codebook(256)
        got = {}
        for seed in (1, 2):
            bench = clustered_dataset(grid, 0.6 * grid.delta0, 500, seed=seed)
            for name, codebook, delta_hat, vectors in (
                ("bench", grid, 0.6 * grid.delta0, bench),
                ("image", trained, choose_delta_hat(trained, blocks), blocks),
            ):
                table = build_neighborhoods(codebook, delta_hat)
                cfg = EncoderConfig(delta_hat=delta_hat, master_seed=seed)
                indices, _, batch = encode_vectors(vectors, codebook, table, cfg)
                got[name, seed] = batch_digest(indices, batch)
        assert got == ENCODE_DIGESTS

    def test_k4_paper_digests_are_pinned(self, tmp_path, image_path):
        # the 2 x 2 blocks' indices and the paper's charges do not depend on the codec's domains
        cb = tmp_path / "cb.txt"
        geometry = ["--block-w", "2", "--block-h", "2"]
        assert main(["train", str(image_path), "-n", "16", "-o", str(cb), "--seed", "3"] + geometry) == 0
        trained = load_codebook(cb)
        blocks = blockify(load_pgm(image_path), BlockGeometry(block_w=2, block_h=2))
        delta_hat = choose_delta_hat(trained, blocks)
        table = build_neighborhoods(trained, delta_hat)
        got = {}
        for seed in (1, 2):
            cfg = EncoderConfig(delta_hat=delta_hat, master_seed=seed)
            indices, _, batch = encode_vectors(blocks, trained, table, cfg)
            got[seed] = paper_digest(indices, batch)
        assert got == PAPER_DIGESTS_2X2

    def test_k3_k4_codec_digests_are_pinned(self, tmp_path, image_path):
        # the k >= 3 blocks' paths, codec charges, domains and table size, at a finite plane
        got = {}
        for name, (w, h) in (("2x2", (2, 2)), ("3x1", (3, 1))):
            cb = tmp_path / f"cb{name}.txt"
            geometry = ["--block-w", str(w), "--block-h", str(h)]
            assert main(["train", str(image_path), "-n", "16", "-o", str(cb), "--seed", "3"] + geometry) == 0
            trained = load_codebook(cb)
            blocks = blockify(load_pgm(image_path), BlockGeometry(block_w=w, block_h=h))
            delta_hat = choose_delta_hat(trained, blocks)
            table = build_neighborhoods(trained, delta_hat)
            for seed in (1, 2):
                cfg = EncoderConfig(delta_hat=delta_hat, master_seed=seed)
                _, _, batch = encode_vectors(blocks, trained, table, cfg)
                got[name, seed] = codec_digest(batch, space_bits(table))
        assert got == CODEC_DIGESTS_K3_K4

    @pytest.mark.parametrize("block", [("2", "1"), ("2", "2")])
    @pytest.mark.parametrize("delta_hat", ["1e308", "inf"])
    def test_huge_delta_hat_saturates_the_margins_silently(self, tmp_path, image_path, block, delta_hat):
        # half_width(1e308) overflowed with numpy's RuntimeWarning, an error under this suite's
        # filterwarnings; every margin saturates to inf as at inf.  For 2 x 2 blocks the plane
        # then has no finite grid and the table takes the strips: stage 1 searches each block's
        # S(x), the brute-force count, and stage 2 all N
        cb, stream, rep = tmp_path / "cb.txt", tmp_path / "s.vqix", tmp_path / "r.txt"
        geometry = ["--block-w", block[0], "--block-h", block[1]]
        assert main(["train", str(image_path), "-n", "8", "-o", str(cb), "--seed", "3"] + geometry) == 0
        args = ["encode", str(image_path), str(cb), "-o", str(stream), "--report", str(rep), "--delta-hat", delta_hat]
        assert main(args + geometry) == 0
        r = report_values(rep.read_text())
        assert r["delta_hat"] == repr(float(delta_hat))
        geom = BlockGeometry(block_w=int(block[0]), block_h=int(block[1]))
        blocks, codebook = blockify(load_pgm(image_path), geom), load_codebook(cb)
        if block == ("2", "2"):
            assert r["mean_sub2_domain"] == "8.0"
            assert float(r["mean_sub1_domain"]) == np.mean([len(stage1_domain(x, codebook)) for x in blocks])
        assert main(["decode", str(stream), str(cb), "-o", str(tmp_path / "d.pgm")]) == 0
        nearest, _ = kernels.nearest_many(blocks, codebook.vectors)
        assert parse_stream(stream.read_bytes()).indices.tolist() == nearest.tolist()

    def test_bench_command(self, tmp_path, capsys):
        assert main(["bench", "--sizes", "16,64", "--vectors", "400", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("ratio_vs_sqrt_n=") == 2
        assert "n=16" in out and "n=64" in out


class TestErrors:
    def test_missing_image(self, tmp_path, capsys):
        code = main(["train", str(tmp_path / "nope.pgm"), "-n", "8", "-o", str(tmp_path / "c")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bench_too_few_vectors(self, capsys):
        assert main(["bench", "--sizes", "64", "--vectors", "1"]) == 1
        assert "n_vectors must be at least 5" in capsys.readouterr().err

    # '+64', '\u0666\u0664' (Arabic-Indic 64) and '1_6' used to run as 64 and 16
    @pytest.mark.parametrize("sizes", ["abc", "64,,256", "1e2", "+64", "\u0666\u0664", "64,1_6"])
    def test_bench_non_integer_size_names_sizes(self, sizes, capsys):
        # used to fail with "invalid literal for int() with base 10", naming no option
        assert main(["bench", "--sizes", sizes]) == 1
        assert f"--sizes must be comma-separated integers, got {sizes!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["train", "i.pgm", "-o", "c", "-n", "\u0668"], "-n/--codebook-size"),
            (["train", "i.pgm", "-o", "c", "-n", "8", "--block-w", "1_0"], "--block-w"),
            (["train", "i.pgm", "-o", "c", "-n", "8", "--block-h", "+1"], "--block-h"),
            (["train", "i.pgm", "-o", "c", "-n", "8", "--seed", " 3"], "--seed"),
            (["bench", "--vectors", "2_000"], "--vectors"),
            (["encode", "i.pgm", "c", "-o", "s", "--delta-hat", "\u0661\u0660\u0660"], "--delta-hat"),
            (["encode", "i.pgm", "c", "-o", "s", "--delta-hat", "1_00"], "--delta-hat"),
            (["stats", "i.pgm", "c", "--delta-hat-percentile", "9_9"], "--delta-hat-percentile"),
        ],
    )
    def test_number_the_file_parsers_reject_names_its_option(self, argv, option, capsys):
        # int and float took signs, spaces, '_' and non-ASCII digits: '\u0668' ran as N = 8, '1_00' as 100.0
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {option}: invalid" in capsys.readouterr().err

    def test_bench_negative_size_names_it(self, capsys):
        # -4 used to fail inside math.sqrt with "math domain error"
        assert main(["bench", "--sizes", "-4"]) == 1
        assert "-4 is not a perfect square" in capsys.readouterr().err

    def test_bench_bad_seed_names_master_seed(self, capsys):
        # used to fail in the dataset's generator with "expected non-negative integer"
        assert main(["bench", "--sizes", "4", "--seed", "-1"]) == 1
        assert "master_seed must be a non-negative int" in capsys.readouterr().err

    def test_train_bad_seed_names_seed(self, tmp_path, image_path, capsys):
        # used to fail in numpy's generator with "expected non-negative integer"
        cb = tmp_path / "cb.txt"
        assert main(["train", str(image_path), "-n", "8", "-o", str(cb), "--seed", "-1"]) == 1
        assert "seed must be a non-negative int, got -1" in capsys.readouterr().err
        assert not cb.exists()

    def test_stats_nan_delta_hat(self, tmp_path, image_path, capsys):
        # used to exit 0 and print inf_omega=0 over all-empty neighbor lists
        cb = tmp_path / "cb.txt"
        assert main(["train", str(image_path), "-n", "8", "-o", str(cb)]) == 0
        capsys.readouterr()
        assert main(["stats", str(image_path), str(cb), "--delta-hat", "nan"]) == 1
        captured = capsys.readouterr()
        assert "delta0/2" in captured.err
        assert captured.out == ""

    def test_bad_stream_file(self, tmp_path, image_path, capsys):
        cb = tmp_path / "cb.txt"
        assert main(["train", str(image_path), "-n", "8", "-o", str(cb)]) == 0
        stream = tmp_path / "good.vqix"
        assert main(["encode", str(image_path), str(cb), "-o", str(stream)]) == 0
        capsys.readouterr()
        # a bad magic, and a good stream cut inside its header
        for name, data in [("bad.vqix", b"garbage!"), ("cut.vqix", stream.read_bytes()[:20])]:
            bad = tmp_path / name
            bad.write_bytes(data)
            assert main(["decode", str(bad), str(cb), "-o", str(tmp_path / "o.pgm")]) == 1
            assert f"error: {bad}: " in capsys.readouterr().err

    def test_codebook_header_of_5000_digits_names_the_file(self, tmp_path, image_path, capsys):
        # past int's 4300-digit limit, int() failed with its own message and no file name
        cb = tmp_path / "cb.txt"
        stream = tmp_path / "s.vqix"
        assert main(["train", str(image_path), "-n", "8", "-o", str(cb)]) == 0
        assert main(["encode", str(image_path), str(cb), "-o", str(stream)]) == 0
        capsys.readouterr()
        long = tmp_path / "long.cb"
        long.write_text("VQCB 1 2 " + "2" * 5000 + "\n0 0\n1 1\n")
        assert main(["decode", str(stream), str(long), "-o", str(tmp_path / "o.pgm")]) == 1
        assert f"error: {long}: bad header" in capsys.readouterr().err

    def test_codebook_component_beyond_max_names_the_file(self, tmp_path, image_path, capsys):
        # its squared distances would overflow to inf and every block would get index 0
        huge = tmp_path / "huge.cb"
        huge.write_text("VQCB 1 2 2\n0 0\n1e200 1e200\n")
        stream = tmp_path / "s.vqix"
        assert main(["encode", str(image_path), str(huge), "-o", str(stream)]) == 1
        assert f"error: {huge}: array has components beyond 2**500" in capsys.readouterr().err
        assert not stream.exists()

    def test_p5_bytes_after_the_raster_name_the_file(self, tmp_path, image_path, capsys):
        cb = tmp_path / "cb.txt"
        assert main(["train", str(image_path), "-n", "8", "-o", str(cb)]) == 0
        capsys.readouterr()
        tail = tmp_path / "tail.pgm"
        tail.write_bytes(b"P5\n2 1\n255\n\x07\x09extra")
        assert main(["stats", str(tail), str(cb)]) == 1
        assert f"error: {tail}: trailing data after pixels" in capsys.readouterr().err

    def test_decode_block_dimension_mismatch_names_both(self, tmp_path, image_path, capsys):
        # used to print "stream block geometry does not match codebook dimension"
        cb = tmp_path / "cb.txt"
        assert main(["train", str(image_path), "-n", "8", "-o", str(cb)]) == 0
        capsys.readouterr()
        stream = tmp_path / "2x2.vqix"
        blocks = IndexStream(n_codevectors=8, block_w=2, block_h=2, width=4, height=4, indices=np.zeros(4, dtype=int))
        stream.write_bytes(serialize_stream(blocks))
        out = tmp_path / "o.pgm"
        assert main(["decode", str(stream), str(cb), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "dimension mismatch: block geometry gives dimension 4, codebook has 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("percentile", ["0", "-5", "100.5", "nan"])
    def test_stats_bad_percentile_rejected_before_the_pass(
        self, tmp_path, image_path, capsys, monkeypatch, percentile
    ):
        cb = tmp_path / "cb.txt"
        assert main(["train", str(image_path), "-n", "8", "-o", str(cb)]) == 0
        capsys.readouterr()

        def no_pass(queries, vectors, radius):
            raise AssertionError("a distance pass ran before the percentile check")

        monkeypatch.setattr(kernels, "window_tiles", no_pass)
        args = ["stats", str(image_path), str(cb), "--delta-hat-percentile", percentile]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "percentile must be in (0, 100]" in captured.err
        assert captured.out == ""

    def test_encode_bad_seed_rejected_before_the_pass(self, tmp_path, image_path, capsys, monkeypatch):
        # loading the codebook and choosing delta_hat used to run two window passes first
        cb = tmp_path / "cb.txt"
        assert main(["train", str(image_path), "-n", "8", "-o", str(cb)]) == 0
        capsys.readouterr()

        def no_pass(queries, vectors, radius, bound=None):
            raise AssertionError("a distance pass ran before the seed check")

        monkeypatch.setattr(kernels, "window_tiles", no_pass)
        stream = tmp_path / "s.vqix"
        assert main(["encode", str(image_path), str(cb), "-o", str(stream), "--seed", "-1"]) == 1
        assert "master_seed must be a non-negative int" in capsys.readouterr().err
        assert not stream.exists()

    def test_delta_hat_below_valid_range(self, tmp_path, image_path, capsys):
        cb = tmp_path / "cb.txt"
        assert main(["train", str(image_path), "-n", "8", "-o", str(cb)]) == 0
        code = main(
            [
                "encode", str(image_path), str(cb),
                "-o", str(tmp_path / "s.vqix"), "--delta-hat", "1e-12",
            ]
        )
        assert code == 1
        assert "delta0/2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "encode", "train"])
    def test_huge_blocks_rejected_before_blockify(self, tmp_path, image_path, capsys, monkeypatch, command):
        # blockify pads the image to the block size: 10**9 x 10**9 blocks ended in numpy's
        # _ArrayMemoryError before the block dimension was compared with the codebook's
        cb = tmp_path / "cb.txt"
        assert main(["train", str(image_path), "-n", "8", "-o", str(cb)]) == 0
        capsys.readouterr()

        def no_blockify(img, geom):
            raise AssertionError("blockify ran before the dimension check")

        monkeypatch.setattr("hqvq.cli.blockify", no_blockify)
        out = tmp_path / "s.vqix"
        args = {
            "stats": [str(image_path), str(cb)],
            "encode": [str(image_path), str(cb), "-o", str(out)],
            "train": [str(image_path), "-n", "8", "-o", str(out)],
        }[command]
        huge = ["--block-w", "1000000000", "--block-h", "1000000000"]
        assert main([command] + args + huge) == 1
        err = capsys.readouterr().err
        if command == "train":  # no codebook to compare with: the block is checked against the image
            assert "block 1000000000x1000000000 is larger than the image 16x16" in err
        else:
            assert "block geometry gives dimension 1000000000000000000, codebook has 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("block", [["17", "1"], ["1", "17"]])
    def test_train_block_larger_than_the_image_rejected(self, tmp_path, image_path, capsys, block):
        # one side too large is enough; the 16 x 16 image is 16 blocks of 1 x 16 or 16 x 1
        out = tmp_path / "cb.txt"
        assert main(["train", str(image_path), "-n", "8", "-o", str(out), "--block-w", block[0], "--block-h", block[1]]) == 1
        assert f"block {block[0]}x{block[1]} is larger than the image 16x16" in capsys.readouterr().err
        assert not out.exists()
        assert main(["train", str(image_path), "-n", "8", "-o", str(out), "--block-w", "16", "--block-h", "1"]) == 0

    @pytest.mark.parametrize("block", [["2", "2"], ["1", "1"]])
    @pytest.mark.parametrize("threshold", [[], ["--delta-hat", "1e9"]])
    def test_stats_block_dimension_mismatch(self, tmp_path, image_path, capsys, block, threshold):
        # the codebook holds 2x1 blocks (k = 2); 2x2 and 1x1 blocks must be refused
        cb = tmp_path / "cb.txt"
        assert main(["train", str(image_path), "-n", "8", "-o", str(cb)]) == 0
        capsys.readouterr()
        geometry = ["--block-w", block[0], "--block-h", block[1]]
        assert main(["stats", str(image_path), str(cb)] + geometry + threshold) == 1
        assert "dimension mismatch" in capsys.readouterr().err

"""Command-line workflow: train -> encode -> decode -> stats -> bench."""

import numpy as np
import pytest

from hqvq import BlockGeometry, blockify, kernels, load_codebook, load_pgm, save_pgm
from hqvq.cli import main


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
        assert "inf_omega=" in out
        assert "space_bits=" in out
        assert "frac_s=" in out
        assert "0:" in out

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
            return [ln for ln in text.splitlines() if ln.startswith("frac_")]

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
        bad = tmp_path / "bad.vqix"
        bad.write_bytes(b"garbage!")
        assert main(["decode", str(bad), str(cb), "-o", str(tmp_path / "o.pgm")]) == 1
        assert "error:" in capsys.readouterr().err

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

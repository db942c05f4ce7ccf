"""End-to-end codec: streams, stats, reports, synthetic data, determinism."""

import math

import numpy as np
import pytest

from hqvq import (
    BlockGeometry,
    Codebook,
    EncoderConfig,
    IndexStream,
    blockify,
    build_neighborhoods,
    clustered_dataset,
    decode_image,
    deblockify,
    encode_image,
    encode_vectors,
    full_search,
    grid_codebook,
    parse_stream,
    psnr,
    report,
    serialize_stream,
)
from hqvq.pipeline import PartitionStats


@pytest.fixture(scope="module")
def small_setup():
    rng = np.random.default_rng(71)
    img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    samples = blockify(img, BlockGeometry(2, 1))
    from hqvq import choose_delta_hat, train_codebook

    cb = train_codebook(samples, 8, seed=5)
    delta_hat = choose_delta_hat(cb, samples, percentile=99)
    cfg = EncoderConfig(delta_hat=delta_hat, master_seed=11)
    table = build_neighborhoods(cb, delta_hat)
    return img, cb, table, cfg


class TestStream:
    def test_round_trip_bit_exact(self):
        stream = IndexStream(
            n_codevectors=16,
            block_w=2,
            block_h=1,
            width=6,
            height=4,
            indices=np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], dtype=np.uint16),
        )
        data = serialize_stream(stream)
        back = parse_stream(data)
        assert back == stream
        assert serialize_stream(back) == data

    def test_header_layout(self):
        stream = IndexStream(
            n_codevectors=3, block_w=2, block_h=1, width=2, height=1,
            indices=np.array([2], dtype=np.uint16),
        )
        data = serialize_stream(stream)
        assert data[:4] == b"VQIX"
        assert data[4:8] == (1).to_bytes(4, "little")
        assert data[8:12] == (3).to_bytes(4, "little")
        assert data[-2:] == (2).to_bytes(2, "little")

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            parse_stream(b"NOPE" + bytes(24))

    def test_truncated_body(self):
        stream = IndexStream(
            n_codevectors=3, block_w=2, block_h=1, width=4, height=1,
            indices=np.array([0, 1], dtype=np.uint16),
        )
        data = serialize_stream(stream)
        with pytest.raises(ValueError, match="bytes"):
            parse_stream(data[:-1])

    def test_decode_rejects_out_of_range_index(self):
        cb = Codebook([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="out of range"):
            stream = IndexStream(
                n_codevectors=2, block_w=2, block_h=1, width=2, height=1,
                indices=np.array([7], dtype=np.uint16),
            )
            decode_image(stream, cb)

    @pytest.mark.parametrize(
        "n, indices",
        [
            (0, [0]),
            (65537, [0]),
            (4, [-1]),
            (4, [4]),
            (65536, [-65535]),  # would wrap to 1 as uint16
            (65536, [69999]),  # would wrap to 4463 as uint16
            (4, [0, 1]),  # one 2x1 block, two indices
            (4, []),
        ],
        ids=[
            "n-zero", "n-over-limit", "index-negative", "index-n",
            "wraps-to-1", "wraps-to-4463", "two-indices-one-block", "no-indices",
        ],
    )
    def test_construction_rejects_malformed(self, n, indices):
        with pytest.raises(ValueError):
            IndexStream(
                n_codevectors=n, block_w=2, block_h=1, width=2, height=1,
                indices=np.array(indices, dtype=np.int64),
            )

    def test_parse_rejects_codebook_size_over_limit(self):
        header = b"VQIX" + b"".join(v.to_bytes(4, "little") for v in (1, 70000, 2, 1, 2, 1))
        with pytest.raises(ValueError, match="codebook size"):
            parse_stream(header + (3).to_bytes(2, "little"))

    def test_parse_rejects_index_not_below_n(self):
        stream = IndexStream(
            n_codevectors=3, block_w=2, block_h=1, width=4, height=1,
            indices=np.array([0, 2], dtype=np.uint16),
        )
        data = serialize_stream(stream)
        with pytest.raises(ValueError, match="out of range"):
            parse_stream(data[:-2] + (3).to_bytes(2, "little"))

    def test_largest_codebook_round_trips(self):
        stream = IndexStream(
            n_codevectors=65536, block_w=1, block_h=1, width=3, height=1,
            indices=np.array([0, 65535, 12345]),
        )
        data = serialize_stream(stream)
        back = parse_stream(data)
        assert back == stream
        assert serialize_stream(back) == data
        assert data[-4:-2] == (65535).to_bytes(2, "little")

    def test_decode_rejects_wrong_codebook_size(self):
        cb = Codebook([[0.0, 0.0], [1.0, 1.0]])
        stream = IndexStream(
            n_codevectors=9, block_w=2, block_h=1, width=2, height=1,
            indices=np.array([0], dtype=np.uint16),
        )
        with pytest.raises(ValueError, match="codevectors"):
            decode_image(stream, cb)


class TestCodec:
    def test_codevector_image_reconstructs_exactly(self):
        cb = Codebook([[10.0, 20.0], [30.0, 40.0], [200.0, 100.0], [5.0, 5.0]])
        # image whose 2x1 blocks are exact codevectors
        img = np.array([[10, 20, 30, 40], [200, 100, 5, 5]], dtype=np.uint8)
        delta_hat = cb.delta0 * 0.75
        cfg = EncoderConfig(delta_hat=delta_hat, master_seed=1)
        table = build_neighborhoods(cb, delta_hat)
        stream, stats = encode_image(img, cb, table, cfg)
        decoded = decode_image(stream, cb)
        np.testing.assert_array_equal(decoded, img)
        assert psnr(img, decoded) == math.inf
        assert stats.a == 1.0

    def test_matches_full_search_reconstruction(self, small_setup):
        img, cb, table, cfg = small_setup
        stream, _ = encode_image(img, cb, table, cfg)
        decoded = decode_image(stream, cb)

        geom = BlockGeometry(2, 1)
        vectors = blockify(img, geom)
        oracle_idx = np.array([full_search(v, cb)[0] for v in vectors])
        np.testing.assert_array_equal(np.asarray(stream.indices, dtype=np.int64), oracle_idx)
        oracle_img = deblockify(cb.vectors[oracle_idx], geom, 16, 16)
        np.testing.assert_array_equal(decoded, oracle_img)

    def test_stats_fractions_sum_to_one(self, small_setup):
        img, cb, table, cfg = small_setup
        _, stats = encode_image(img, cb, table, cfg)
        assert stats.a + stats.b + stats.c == pytest.approx(1.0, abs=1e-12)
        assert stats.count_sub1 + stats.count_sub2 + stats.count_fallback == stats.n_vectors

    def test_geometry_mismatch_rejected(self, small_setup):
        img, cb, table, cfg = small_setup
        with pytest.raises(ValueError, match="dimension"):
            encode_image(img, cb, table, cfg, geom=BlockGeometry(3, 1))

    def test_determinism_byte_identical(self, small_setup):
        img, cb, table, cfg = small_setup
        s1, st1 = encode_image(img, cb, table, cfg)
        s2, st2 = encode_image(img, cb, table, cfg)
        assert serialize_stream(s1) == serialize_stream(s2)
        assert st1 == st2
        assert report(st1, cb.n) == report(st2, cb.n)

    def test_different_seed_may_change_cost_not_result(self, small_setup):
        img, cb, table, cfg = small_setup
        other = EncoderConfig(delta_hat=cfg.delta_hat, master_seed=cfg.master_seed + 1)
        s1, _ = encode_image(img, cb, table, cfg)
        s2, _ = encode_image(img, cb, table, other)
        np.testing.assert_array_equal(s1.indices, s2.indices)


def grid64_setup():
    cb = grid_codebook(64)
    table = build_neighborhoods(cb, 0.6 * cb.delta0)
    return cb, table, EncoderConfig(delta_hat=table.delta_hat, master_seed=0)


class TestEncodeVectors:
    def test_table_threshold_mismatch_rejected_before_any_block(self):
        # every block sits on a codevector, so all of them take stage 1 and
        # none reaches stage 2; the mismatch is still rejected up front
        cb, table, _ = grid64_setup()
        cfg = EncoderConfig(delta_hat=0.7 * cb.delta0, master_seed=0)
        with pytest.raises(ValueError, match="does not match"):
            encode_vectors(cb.vectors[:8], cb, table, cfg)

    def test_nested_list_encodes_like_an_array(self):
        cb, table, cfg = grid64_setup()
        rows = [[0.0, 0.0], [31.0, 9.0]]
        from_list, stats_list, _ = encode_vectors(rows, cb, table, cfg)
        from_array, stats_array, _ = encode_vectors(np.array(rows), cb, table, cfg)
        np.testing.assert_array_equal(from_list, from_array)
        assert list(from_list) == [full_search(x, cb)[0] for x in rows]
        assert stats_list == stats_array

    @pytest.mark.parametrize(
        "vectors",
        [np.array([0.0, 0.0]), np.zeros((1, 1, 2)), np.empty((0, 2)), 3.0],
        ids=["1-d", "3-d", "empty", "scalar"],
    )
    def test_non_matrix_input_rejected(self, vectors):
        cb, table, cfg = grid64_setup()
        with pytest.raises(ValueError, match=r"\(M, k\)"):
            encode_vectors(vectors, cb, table, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_component_rejected(self, bad):
        cb, table, cfg = grid64_setup()
        rows = np.array([[0.0, 0.0], [31.0, 9.0], [5.0, 5.0]])
        rows[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            encode_vectors(rows, cb, table, cfg)

    @pytest.mark.parametrize("table_n, codebook_n", [(64, 256), (256, 64)])
    def test_table_for_another_codebook_size_rejected(self, table_n, codebook_n):
        # a smaller table used to raise IndexError, a larger one to charge the wrong lists
        cb = grid_codebook(codebook_n)
        table = build_neighborhoods(grid_codebook(table_n), 0.6 * cb.delta0)
        cfg = EncoderConfig(delta_hat=table.delta_hat, master_seed=0)
        rows = clustered_dataset(cb, table.delta_hat, 50, seed=4)
        with pytest.raises(ValueError, match=f"table has {table_n} lists, codebook has {codebook_n}"):
            encode_vectors(rows, cb, table, cfg)

    @pytest.mark.parametrize("k", [1, 3])
    def test_dimension_mismatch_rejected(self, k):
        cb, table, cfg = grid64_setup()
        with pytest.raises(ValueError, match="dimension mismatch"):
            encode_vectors(np.zeros((4, k)), cb, table, cfg)


class TestReport:
    def make_stats(self, mean_grover):
        return PartitionStats(
            n_vectors=100, a=0.9, b=0.09, c=0.01,
            count_sub1=90, count_sub2=9, count_fallback=1,
            mean_grover_iterations=mean_grover, max_grover_iterations=20,
            mean_classical_evals=3.0, max_classical_evals=50,
        )

    def parse(self, text):
        return dict(line.split("=", 1) for line in text.strip().splitlines())

    def test_ratio_vs_sqrt_n(self):
        got = self.parse(report(self.make_stats(8.0), 256))
        assert float(got["ratio_vs_sqrt_n"]) == 0.5
        assert got["n"] == "256"
        assert float(got["sqrt_n"]) == 16.0

    def test_ratio_vs_pure_quantum(self):
        got = self.parse(report(self.make_stats(8.0), 256))
        assert float(got["ratio_vs_pure_quantum"]) == pytest.approx(8 / (45 * 16), abs=1e-15)

    def test_required_keys_present(self):
        got = self.parse(report(self.make_stats(1.0), 64))
        for key in (
            "n", "sqrt_n", "mean_grover_iters", "mean_classical_evals",
            "frac_s", "frac_t_minus_s", "frac_i_minus_t",
            "ratio_vs_sqrt_n", "ratio_vs_pure_quantum",
            "count_sub1", "count_sub2", "count_fallback",
        ):
            assert key in got


class TestSyntheticDataset:
    def test_fractions_by_construction(self):
        cb = grid_codebook(64)
        delta_hat = 0.6 * cb.delta0
        data = clustered_dataset(cb, delta_hat, 2000, seed=9)
        assert data.shape == (2000, 2)
        half = cb.delta0 / 2.0
        nearest = np.array([full_search(v, cb)[1] for v in data])
        a = float((nearest < half).mean())
        b = float(((nearest >= half) & (nearest < delta_hat)).mean())
        c = float((nearest >= delta_hat).mean())
        assert 0.80 <= a <= 0.99
        assert 0.01 <= b <= 0.19
        assert c < 0.01
        assert c > 0.0

    @pytest.mark.parametrize("n", range(5))
    def test_fewer_than_five_vectors_rejected(self, n):
        # the 90/9/1 mixture leaves a negative shell count below 5 vectors
        cb = grid_codebook(64)
        with pytest.raises(ValueError, match="n_vectors must be at least 5"):
            clustered_dataset(cb, 0.6 * cb.delta0, n, seed=0)

    def test_five_vectors_is_the_minimum(self):
        cb = grid_codebook(64)
        assert clustered_dataset(cb, 0.6 * cb.delta0, 5, seed=0).shape == (5, 2)

    def test_all_s_synthetic_run_stays_on_fast_path(self):
        # N=256 keeps the single-pass failure rate near 5e-5, well under 0.1%
        cb = grid_codebook(256)
        delta_hat = 0.6 * cb.delta0
        rng = np.random.default_rng(10)
        centers = cb.vectors[rng.integers(0, 256, size=1000)]
        offsets = rng.uniform(-1.5, 1.5, size=(1000, 2))
        data = centers + offsets  # all well within delta0/2 = 5
        cfg = EncoderConfig(delta_hat=delta_hat, master_seed=2)
        table = build_neighborhoods(cb, delta_hat)
        _, stats, _ = encode_vectors(data, cb, table, cfg)
        assert stats.a == 1.0
        assert stats.count_sub1 >= 999  # 0.1% measurement-failure slack

    def test_rejects_non_grid_dimension(self):
        cb = Codebook([[0.0], [10.0]])
        with pytest.raises(ValueError, match="2-D"):
            clustered_dataset(cb, 6.0, 100, seed=0)

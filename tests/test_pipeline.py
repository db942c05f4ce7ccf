"""End-to-end codec: streams, stats, reports, synthetic data, determinism."""

import math

import numpy as np
import pytest
from reference_encoder import batch_meter, batch_rows, seeded_draws

from hqvq import (
    BlockGeometry,
    Codebook,
    EncoderConfig,
    IndexStream,
    blockify,
    build_neighborhoods,
    choose_delta_hat,
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
    train_codebook,
)
from hqvq import kernels
from hqvq.codebook import MAX_COMPONENT
from hqvq.encoder import PATHS, EncodePath, encode_sub2, finishing_walks, sub1_table
from hqvq.pipeline import PartitionStats


@pytest.fixture(scope="module")
def small_setup():
    rng = np.random.default_rng(71)
    img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    samples = blockify(img, BlockGeometry(2, 1))
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
        # stage 1 marks every block below delta0/2, and more
        assert stats.a <= stats.sub1_marked <= 1.0
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

    def test_every_row_set_is_projected_once(self, monkeypatch):
        # training projects its distinct rows once and its centroids once per iteration;
        # a codebook projects its N rows at construction, and every later pass reads them;
        # a block pass projects the distinct blocks once, and the walks read that projection
        img = np.random.default_rng(4).integers(0, 256, size=(32, 32), dtype=np.uint8)
        samples = blockify(img, BlockGeometry(2, 1))
        distinct = np.unique(samples, axis=0).shape[0]
        assert distinct == 510
        rows = []
        projections = kernels.projections

        def counted(a):
            rows.append(a.shape[0])
            return projections(a)

        monkeypatch.setattr(kernels, "projections", counted)
        cb = train_codebook(samples, 16, seed=2, max_iter=5)
        assert rows == [distinct] + [16] * 5 + [16]
        rows.clear()
        Codebook(cb.vectors)
        assert rows == [16]
        rows.clear()
        delta_hat = choose_delta_hat(cb, samples)
        assert rows == [distinct]
        rows.clear()
        table = build_neighborhoods(cb, delta_hat)
        assert rows == []
        _, stats, _ = encode_vectors(samples, cb, table, EncoderConfig(delta_hat=delta_hat, master_seed=3))
        assert stats.count_sub2 > 0 and stats.count_fallback > 0  # both walks run
        assert rows == [distinct]


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

    def test_huge_component_rejected(self):
        # its distances overflowed to inf, and every block got index 0
        cb, table, cfg = grid64_setup()
        rows = np.array([[0.0, 0.0], [31.0, 9.0], [1e200, 5.0]])
        with pytest.raises(ValueError, match=r"2\*\*500"):
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

    def test_paper_charges_the_whole_list_or_codebook(self):
        # the paper's scan is h's whole list after a stage-2 hit and all N in a
        # fallback; the walks charge at most that, on every block
        cb, table, cfg = grid64_setup()
        rows = clustered_dataset(cb, table.delta_hat, 2000, seed=6)
        _, stats, batch = encode_vectors(rows, cb, table, cfg)
        sub2 = batch.path == PATHS.index(EncodePath.SUB2)
        fallback = batch.path == PATHS.index(EncodePath.CLASSICAL_FALLBACK)
        assert sub2.any() and fallback.any()
        whole = np.zeros(rows.shape[0], dtype=np.int64)
        whole[sub2] = table.sizes()[batch.facts.pick[sub2]]
        whole[fallback] = cb.n
        walks, _ = finishing_walks(batch.facts, cb, table, sub2, fallback)
        assert np.all(walks <= whole) and np.all(walks[~(sub2 | fallback)] == 0)
        # every block the paper's stage 1 passes is charged floor(pi/4 * 8) = 6 and 1, and no more
        paper = batch.paper
        passed = paper.classical_distance_evals == 1
        assert np.all(paper.grover_iterations[passed] == 6) and np.all(paper.grover_iterations >= 6)
        # a block the paper's stage 1 sends on is charged the paper's own rounds over N, as they
        # run alone on the same draws, then its own scan: h's whole list after its hit, else all N
        rounds = batch_meter(rows.shape[0])
        sent = np.flatnonzero(~passed)
        (hit,) = encode_sub2(batch.facts.t, ((sent, cb.n, rounds),), seeded_draws(cfg.master_seed, rows.shape[0]))
        scan = np.where(hit, np.append(table.sizes(), 0)[batch.facts.pick], cb.n)
        assert np.array_equal(paper.grover_iterations, 6 + rounds.grover_iterations)
        assert np.array_equal(paper.classical_distance_evals[sent], (1 + rounds.classical_distance_evals + scan)[sent])
        assert stats.paper_mean_classical_evals == float(paper.classical_distance_evals.mean())
        assert stats.paper_mean_grover_iterations == float(paper.grover_iterations.mean())
        assert stats.mean_classical_evals < stats.paper_mean_classical_evals
        assert stats.mean_grover_iterations < stats.paper_mean_grover_iterations
        assert stats.mean_table_reads == float(batch.meter.table_reads.mean())
        assert stats.mean_sub1_domain == float(batch.facts.domain_s.mean())
        assert stats.mean_sub2_domain == float(batch.facts.domain_t.mean())
        # stage 1's lookup reads one binary search over the 128 interval ends and the piece's
        # count, bit_length(128) + 1, for every block; stage 2's window two binary searches,
        # 2 bit_length(64), for every block that enters it; the walks read more
        assert np.all(batch.meter.table_reads[~(sub2 | fallback)] == 9)
        assert np.all(batch.meter.table_reads[sub2 | fallback] > 9 + 14)
        assert np.all(paper.table_reads == 0)

    def test_a_blocks_charges_depend_only_on_that_block(self):
        # one block near MAX_COMPONENT widens no other block's strip: each
        # block's margin scale comes from that block and the codebook
        cb, table, cfg = grid64_setup()
        rows = clustered_dataset(cb, table.delta_hat, 400, seed=9)
        huge = np.full((1, cb.k), MAX_COMPONENT / 2)
        _, _, alone = encode_vectors(rows, cb, table, cfg)
        _, _, with_huge = encode_vectors(np.vstack([rows, huge]), cb, table, cfg)
        assert batch_rows(with_huge)[: rows.shape[0]] == batch_rows(alone)
        # the walks' charges alone, as the batches' paths give them
        size = rows.shape[0]
        hit, fallback = (with_huge.path == PATHS.index(p) for p in (EncodePath.SUB2, EncodePath.CLASSICAL_FALLBACK))
        walks, _ = finishing_walks(alone.facts, cb, table, hit[:size], fallback[:size])
        wide, _ = finishing_walks(with_huge.facts, cb, table, hit, fallback)
        np.testing.assert_array_equal(wide[:size], walks)
        assert (walks > 0).any()


class TestReport:
    def make_stats(self, mean_grover):
        return PartitionStats(
            n_vectors=100, a=0.9, b=0.09, c=0.01, sub1_marked=0.92,
            count_sub1=90, count_sub2=9, count_fallback=1,
            mean_grover_iterations=mean_grover, max_grover_iterations=20,
            mean_classical_evals=3.0, max_classical_evals=50,
            mean_table_reads=7.5, mean_sub1_domain=21.0, mean_sub2_domain=17.5,
            paper_mean_grover_iterations=14.0, paper_mean_classical_evals=12.0,
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
            "frac_sub1_marked", "ops_per_block", "ratio_ops_vs_sqrt_n",
            "mean_table_reads", "paper_mean_classical_evals", "paper_ops_per_block",
            "mean_sub1_domain", "mean_sub2_domain", "paper_mean_grover_iters",
        ):
            assert key in got

    def test_operations_per_block(self):
        # 8 iterations and 3 evaluations per block, against sqrt(256) = 16
        got = self.parse(report(self.make_stats(8.0), 256))
        assert float(got["ops_per_block"]) == 11.0
        assert float(got["ratio_ops_vs_sqrt_n"]) == 11.0 / 16.0
        assert float(got["frac_sub1_marked"]) == 0.92

    def test_paper_operations_and_table_reads(self):
        # the paper's configuration costs 14 iterations and 12 evaluations per block,
        # its own on both counts; table reads are not operations
        got = self.parse(report(self.make_stats(8.0), 256))
        assert float(got["paper_mean_grover_iters"]) == 14.0
        assert float(got["paper_mean_classical_evals"]) == 12.0
        assert float(got["paper_ops_per_block"]) == 26.0
        assert float(got["mean_table_reads"]) == 7.5
        assert float(got["mean_sub1_domain"]) == 21.0
        assert float(got["mean_sub2_domain"]) == 17.5
        assert float(got["ops_per_block"]) == 11.0
        # the two windows' sizes sit side by side
        keys = list(got)
        assert keys.index("mean_sub2_domain") == keys.index("mean_sub1_domain") + 1


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

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_bad_seed_rejected_naming_it(self, seed):
        # -1 failed in numpy's generator, True ran as seed 1, and 1.5 was a TypeError
        cb = grid_codebook(64)
        with pytest.raises(ValueError, match=f"^seed must be a non-negative int, got {seed!r}$"):
            clustered_dataset(cb, 0.6 * cb.delta0, 100, seed=seed)

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
        _, stats, batch = encode_vectors(data, cb, table, cfg)
        assert stats.a == 1.0
        # the paper's stage 1 over N: charged one verification, no more, when it passes
        assert np.count_nonzero(batch.paper.classical_distance_evals == 1) >= 999  # 0.1% slack
        # the window's: W is a few codevectors on x's anti-diagonal, each block's success
        # sin^2((2j+1) theta) with sin(theta) = 1/sqrt(W), lower than over N; the rest go on exactly
        _, bias, _ = sub1_table(int(batch.facts.domain_s.max()))
        chance = bias[batch.facts.domain_s]
        mean, spread = chance.sum(), math.sqrt((chance * (1 - chance)).sum())
        assert abs(stats.count_sub1 - mean) < 4 * spread
        assert stats.count_sub1 + stats.count_sub2 + stats.count_fallback == 1000

    @pytest.mark.parametrize("n", [-4, 0, 2])
    def test_grid_size_not_a_positive_square_rejected_naming_it(self, n):
        # -4 used to fail inside math.sqrt ("math domain error"), 0 as an empty codebook
        with pytest.raises(ValueError, match=f"^{n} is not a perfect square$"):
            grid_codebook(n)

    def test_rejects_non_grid_dimension(self):
        cb = Codebook([[0.0], [10.0]])
        with pytest.raises(ValueError, match="2-D"):
            clustered_dataset(cb, 6.0, 100, seed=0)

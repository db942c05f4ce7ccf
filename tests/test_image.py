"""PGM I/O, block extraction, PSNR."""

import math

import numpy as np
import pytest

from hqvq import BlockGeometry, blockify, deblockify, load_pgm, psnr, save_pgm

# 10*log10(255^2), frozen from a 50-digit mpmath evaluation
PSNR_OFF_BY_ONE = 48.130803608679103


class TestPgm:
    def test_ascii_parse(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2 2 2 255 0 64 128 255")
        img = load_pgm(p)
        np.testing.assert_array_equal(img, [[0, 64], [128, 255]])

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(61)
        img = rng.integers(0, 256, size=(13, 7), dtype=np.uint8)
        p = tmp_path / "r.pgm"
        save_pgm(img, p)
        np.testing.assert_array_equal(load_pgm(p), img)

    def test_save_is_canonical_p5(self, tmp_path):
        img = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        p = tmp_path / "c.pgm"
        save_pgm(img, p)
        assert p.read_bytes() == b"P5\n2 2\n255\n\x01\x02\x03\x04"

    def test_file_bytes_stable_across_round_trip(self, tmp_path):
        rng = np.random.default_rng(62)
        img = rng.integers(0, 256, size=(5, 9), dtype=np.uint8)
        p1, p2 = tmp_path / "1.pgm", tmp_path / "2.pgm"
        save_pgm(img, p1)
        save_pgm(load_pgm(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_comments_in_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P2\n# a comment\n2 1\n255\n7 9")
        np.testing.assert_array_equal(load_pgm(p), [[7, 9]])

    def test_sixteen_bit_rejected(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P2 1 1 65535 0")
        with pytest.raises(ValueError, match="maxval"):
            load_pgm(p)

    def test_truncated_binary_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ValueError, match="truncated"):
            load_pgm(p)

    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "w.pgm"
        p.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError, match="PGM"):
            load_pgm(p)

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(b"P2 2 1 255 1_0 7", id="p2-underscore"),  # int() reads 1_0 as 10
            pytest.param(b"P2 2 1 255 +1 7", id="p2-plus"),
            pytest.param(b"P2 2 1 255 -0 7", id="p2-minus-zero"),
            pytest.param(b"P2 2 1 255 x 7", id="p2-letter"),
            pytest.param(b"P2 2 1 255 \xd9\xa1 7", id="p2-non-ascii-digit"),  # ARABIC-INDIC ONE, UTF-8
            pytest.param(b"P2 2 1 2_55 1 7", id="p2-header-underscore"),
            pytest.param(b"P2 +2 1 255 1 7", id="p2-header-plus"),
            pytest.param(b"P5 2 1 25_5\n\x01\x02", id="p5-header-underscore"),
            pytest.param(b"P5 1_0 1 255\n" + bytes(10), id="p5-width-underscore"),
            pytest.param(b"P2 1 1 255 " + b"1" * 5000, id="p2-too-many-digits"),  # past int()'s limit
            pytest.param(b"P2 " + b"1" * 5000 + b" 1 255 1", id="p2-header-too-many-digits"),
        ],
    )
    def test_non_digit_numbers_rejected_naming_the_file(self, tmp_path, data):
        p = tmp_path / "n.pgm"
        p.write_bytes(data)
        with pytest.raises(ValueError, match="n.pgm"):
            load_pgm(p)


class TestBlocks:
    def test_two_by_two_image_pairs(self):
        img = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        vectors = blockify(img, BlockGeometry(2, 1))
        np.testing.assert_array_equal(vectors, [[1.0, 2.0], [3.0, 4.0]])

    def test_block_count_256(self):
        img = np.zeros((256, 256), dtype=np.uint8)
        assert blockify(img, BlockGeometry(2, 1)).shape == (32768, 2)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(63)
        for geom in (BlockGeometry(2, 1), BlockGeometry(2, 2), BlockGeometry(4, 1)):
            img = rng.integers(0, 256, size=(12, 8), dtype=np.uint8)
            vectors = blockify(img, geom)
            back = deblockify(vectors, geom, 8, 12)
            np.testing.assert_array_equal(back, img)

    def test_padding_round_trip(self):
        rng = np.random.default_rng(64)
        img = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        geom = BlockGeometry(2, 2)
        vectors = blockify(img, geom)
        assert vectors.shape == (3 * 4, 4)
        back = deblockify(vectors, geom, 7, 5)
        np.testing.assert_array_equal(back, img)

    def test_within_block_order_row_major(self):
        img = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        vectors = blockify(img, BlockGeometry(2, 2))
        np.testing.assert_array_equal(vectors, [[1.0, 2.0, 3.0, 4.0]])

    def test_rounding_half_away_from_zero_and_clamp(self):
        geom = BlockGeometry(2, 1)
        vectors = np.array([[0.5, 254.5], [-3.0, 270.0]])
        out = deblockify(vectors, geom, 2, 2)
        np.testing.assert_array_equal(out, [[1, 255], [0, 255]])

    def test_vector_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="vectors"):
            deblockify(np.zeros((3, 2)), BlockGeometry(2, 1), 4, 1)


class TestPsnr:
    def test_identical_is_infinite(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        assert psnr(img, img) == math.inf

    def test_off_by_one_everywhere(self):
        a = np.zeros((8, 8), dtype=np.uint8)
        b = a + 1
        assert psnr(a, b) == pytest.approx(PSNR_OFF_BY_ONE, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(65)
        a = rng.integers(0, 256, size=(6, 6), dtype=np.uint8)
        b = rng.integers(0, 256, size=(6, 6), dtype=np.uint8)
        assert psnr(a, b) == psnr(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            psnr(np.zeros((2, 2), np.uint8), np.zeros((3, 2), np.uint8))

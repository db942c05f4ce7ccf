"""The package's public names: every one resolves, none is listed twice."""

import hqvq


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from hqvq import *", namespace)
    assert set(hqvq.__all__) <= namespace.keys()


def test_all_has_no_duplicates():
    assert len(hqvq.__all__) == len(set(hqvq.__all__))


def test_all_is_exactly_the_public_api():
    assert sorted(hqvq.__all__) == [
        "BlockGeometry",
        "Codebook",
        "EncodePath",
        "EncoderConfig",
        "IndexStream",
        "QueryMeter",
        "blockify",
        "build_neighborhoods",
        "choose_delta_hat",
        "clustered_dataset",
        "deblockify",
        "decode_image",
        "distance",
        "encode",
        "encode_image",
        "encode_vectors",
        "full_search",
        "grid_codebook",
        "load_codebook",
        "load_pgm",
        "parse_stream",
        "psnr",
        "report",
        "save_codebook",
        "save_pgm",
        "serialize_stream",
        "space_bits",
        "train_codebook",
    ]

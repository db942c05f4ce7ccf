"""Hybrid quantum-classical vector-quantization image codec.

The encoder finds exact nearest codevectors through a two-stage amplified
search (simulated exactly at the amplitude level) with a classical fallback,
and meters every search iteration and classical distance evaluation so the
query-count behavior can be measured against the O(N) full-search baseline.
"""

from .codebook import (
    Codebook,
    distance,
    full_search,
    load_codebook,
    save_codebook,
    train_codebook,
)
from .encoder import (
    EncodePath,
    EncoderConfig,
    QueryMeter,
    choose_delta_hat,
    encode,
    encode_sub1,
    encode_sub2,
)
from .grover import (
    MarkedSet,
    derive_rng,
    grover_distribution,
    measure,
    statevector_distribution,
)
from .image import BlockGeometry, blockify, deblockify, load_pgm, psnr, save_pgm
from .neighborhood import build_neighborhoods, space_bits
from .pipeline import (
    IndexStream,
    clustered_dataset,
    decode_image,
    encode_image,
    encode_vectors,
    grid_codebook,
    parse_stream,
    report,
    serialize_stream,
)

__all__ = [
    "BlockGeometry",
    "Codebook",
    "EncodePath",
    "EncoderConfig",
    "IndexStream",
    "MarkedSet",
    "QueryMeter",
    "blockify",
    "build_neighborhoods",
    "choose_delta_hat",
    "clustered_dataset",
    "deblockify",
    "decode_image",
    "derive_rng",
    "distance",
    "encode",
    "encode_image",
    "encode_sub1",
    "encode_sub2",
    "encode_vectors",
    "full_search",
    "grid_codebook",
    "grover_distribution",
    "load_codebook",
    "load_pgm",
    "measure",
    "parse_stream",
    "psnr",
    "report",
    "save_codebook",
    "save_pgm",
    "serialize_stream",
    "space_bits",
    "statevector_distribution",
    "train_codebook",
]

__version__ = "0.1.0"

"""Command-line interface: train, encode, decode, stats, bench."""

from __future__ import annotations

import argparse
import inspect
import sys

from .codebook import check_seed, decimals, load_codebook, save_codebook, train_codebook
from .encoder import (
    EncoderConfig,
    check_percentile,
    choose_delta_hat,
    delta_hat_from_nearest,
    nearest_distances,
)
from .image import BlockGeometry, blockify, load_pgm, psnr, save_pgm
from .neighborhood import build_neighborhoods, dump_table, space_bits
from .pipeline import (
    check_geometry,
    clustered_dataset,
    decode_image,
    encode_image,
    encode_vectors,
    grid_codebook,
    parse_stream,
    region_fractions,
    report,
    serialize_stream,
)


def ascii_int(text: str) -> int:
    """``int`` by the file parsers' rule, ``decimals``, after one optional leading '-'."""
    (value,) = decimals([text.removeprefix("-")], f"not an integer of ASCII digits: {text!r}")
    return -value if text.startswith("-") else value


def ascii_float(text: str) -> float:
    """``float`` by ``load_codebook``'s rule: ASCII text without '_'."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number without '_': {text!r}")
    return float(text)


def _add_block_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--block-w", type=ascii_int, default=2, help="block width in pixels")
    p.add_argument("--block-h", type=ascii_int, default=1, help="block height in pixels")


def _add_threshold_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--delta-hat", type=ascii_float, default=None, help="stage-2 threshold")
    g.add_argument(
        "--delta-hat-percentile",
        type=ascii_float,
        default=inspect.signature(choose_delta_hat).parameters["percentile"].default,
        help="pick the threshold at this percentile of nearest distances",
    )


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_train(args) -> int:
    img = load_pgm(args.image)
    geom = BlockGeometry(block_w=args.block_w, block_h=args.block_h)
    # blockify pads the image to the block size, however large: no codebook to check k against here
    height, width = img.shape
    if geom.block_w > width or geom.block_h > height:
        raise ValueError(f"block {geom.block_w}x{geom.block_h} is larger than the image {width}x{height}")
    vectors = blockify(img, geom)
    codebook = train_codebook(vectors, args.codebook_size, seed=args.seed)
    save_codebook(codebook, args.output)
    print(f"trained codebook: N={codebook.n} k={codebook.k} delta0={codebook.delta0!r}")
    return 0


def cmd_encode(args) -> int:
    check_seed(args.seed, "master_seed")
    img = load_pgm(args.image)
    codebook = load_codebook(args.codebook)
    geom = BlockGeometry(block_w=args.block_w, block_h=args.block_h)
    check_geometry(geom, codebook)
    vectors = blockify(img, geom)
    delta_hat = args.delta_hat
    if delta_hat is None:
        delta_hat = choose_delta_hat(codebook, vectors, percentile=args.delta_hat_percentile)
    cfg = EncoderConfig(delta_hat=delta_hat, master_seed=args.seed)
    table = build_neighborhoods(codebook, delta_hat)
    stream, stats = encode_image(img, codebook, table, cfg, geom=geom)
    with open(args.output, "wb") as fh:
        fh.write(serialize_stream(stream))
    text = report(stats, codebook.n)
    text += f"delta_hat={delta_hat!r}\n"
    text += f"psnr={psnr(img, decode_image(stream, codebook))!r}\n"
    _emit(text, args.report)
    return 0


def cmd_decode(args) -> int:
    with open(args.stream, "rb") as fh:
        data = fh.read()
    try:
        stream = parse_stream(data)
    except ValueError as exc:
        raise ValueError(f"{args.stream}: {exc}") from None
    codebook = load_codebook(args.codebook)
    save_pgm(decode_image(stream, codebook), args.output)
    return 0


def cmd_stats(args) -> int:
    if args.delta_hat is None:
        check_percentile(args.delta_hat_percentile)
    img = load_pgm(args.image)
    codebook = load_codebook(args.codebook)
    geom = BlockGeometry(block_w=args.block_w, block_h=args.block_h)
    check_geometry(geom, codebook)
    # one nearest-codevector pass feeds both the threshold and the fractions
    nearest = nearest_distances(codebook, blockify(img, geom))
    delta_hat = args.delta_hat
    if delta_hat is None:
        delta_hat = delta_hat_from_nearest(nearest, codebook.delta0, args.delta_hat_percentile)
    table = build_neighborhoods(codebook, delta_hat)
    frac_s, frac_t_minus_s, frac_i_minus_t = region_fractions(nearest, codebook.delta0, delta_hat)
    sizes = table.sizes()
    lines = [
        f"n={codebook.n}",
        f"k={codebook.k}",
        f"vectors={nearest.size}",
        f"delta0={codebook.delta0!r}",
        f"delta_hat={delta_hat!r}",
        f"frac_s={frac_s!r}",
        f"frac_t_minus_s={frac_t_minus_s!r}",
        f"frac_i_minus_t={frac_i_minus_t!r}",
        f"inf_omega={table.inf_omega}",
        f"max_omega={int(sizes.max())}",
        f"mean_omega={float(sizes.mean())!r}",
        f"space_bits={space_bits(table)}",
    ]
    text = "\n".join(lines) + "\n"
    if args.dump_neighbors:
        text += dump_table(table) + "\n"
    _emit(text, args.report)
    return 0


def cmd_bench(args) -> int:
    check_seed(args.seed, "master_seed")
    try:
        sizes = [ascii_int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise ValueError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    blocks = []
    for n in sizes:
        codebook = grid_codebook(n)
        delta_hat = 0.6 * codebook.delta0
        data = clustered_dataset(codebook, delta_hat, args.vectors, seed=args.seed)
        cfg = EncoderConfig(delta_hat=delta_hat, master_seed=args.seed)
        table = build_neighborhoods(codebook, delta_hat)
        _, stats, _ = encode_vectors(data, codebook, table, cfg)
        blocks.append(report(stats, n))
    _emit("\n".join(blocks), args.report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqvq",
        description="Hybrid quantum-classical VQ image codec (exactly simulated search)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a codebook from an image's blocks")
    p.add_argument("image", help="training image (PGM)")
    p.add_argument("-n", "--codebook-size", type=ascii_int, required=True)
    p.add_argument("-o", "--output", required=True, help="codebook file to write")
    p.add_argument("--seed", type=ascii_int, default=0)
    _add_block_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="encode an image to an index stream")
    p.add_argument("image", help="input image (PGM)")
    p.add_argument("codebook", help="codebook file")
    p.add_argument("-o", "--output", required=True, help="index stream to write")
    p.add_argument("--report", default=None, help="write the stats report here instead of stdout")
    p.add_argument("--seed", type=ascii_int, default=0)
    _add_block_args(p)
    _add_threshold_args(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode an index stream back to an image")
    p.add_argument("stream", help="index stream file")
    p.add_argument("codebook", help="codebook file")
    p.add_argument("-o", "--output", required=True, help="PGM file to write")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("stats", help="region fractions, neighborhood sizes, storage cost")
    p.add_argument("image", help="input image (PGM)")
    p.add_argument("codebook", help="codebook file")
    p.add_argument("--report", default=None)
    p.add_argument("--dump-neighbors", action="store_true", help="also list every neighbor set")
    _add_block_args(p)
    _add_threshold_args(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bench", help="query-count sweep over codebook sizes")
    p.add_argument("--sizes", default="64,256,1024", help="comma-separated codebook sizes")
    p.add_argument("--vectors", type=ascii_int, default=2000, help="synthetic vectors per size")
    p.add_argument("--seed", type=ascii_int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

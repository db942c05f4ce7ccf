"""Grayscale image I/O and block handling for the codec.

Images are (height, width) uint8 arrays.  Only 8-bit PGM is supported: P5 and
P2 are read, canonical P5 is written, so a save/load round trip is bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BlockGeometry:
    """Block shape in pixels; the vector dimension is block_w * block_h."""

    block_w: int = 2
    block_h: int = 1

    def __post_init__(self):
        if self.block_w < 1 or self.block_h < 1:
            raise ValueError("block dimensions must be >= 1")

    @property
    def k(self) -> int:
        return self.block_w * self.block_h

    def grid(self, width: int, height: int) -> tuple[int, int]:
        """Block rows and columns covering a width x height image.

        Partial blocks at the right and bottom edges count (they are padded),
        so an image has rows * cols blocks.
        """
        return math.ceil(height / self.block_h), math.ceil(width / self.block_w)


def _read_header_tokens(data: bytes, count: int, start: int) -> tuple[list[bytes], int]:
    # whitespace-separated tokens; '#' starts a comment running to end of line
    tokens = []
    i = start
    while len(tokens) < count:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        if i >= len(data):
            raise ValueError("truncated PGM header")
        j = i
        while j < len(data) and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
            j += 1
        tokens.append(data[i:j])
        i = j
    return tokens, i


def _decimals(tokens: list[bytes], path, what: str) -> list[int]:
    """Tokens of ASCII digits as ints; any other token is a ``ValueError`` naming the file.

    ``int`` alone would also take a sign, '_' separators and non-ASCII
    digits, and raises without the file's name on more than 4300 digits.
    """
    try:
        if all(t.isdigit() for t in tokens):
            return [int(t) for t in tokens]
    except ValueError:
        pass
    raise ValueError(f"{path}: malformed {what}")


def load_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P5", b"P2"):
        raise ValueError(f"{path}: not an 8-bit PGM (P5/P2) file")
    binary = data[:2] == b"P5"
    tokens, pos = _read_header_tokens(data, 3, 2)
    width, height, maxval = _decimals(tokens, path, "PGM header")
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval} (only 255)")
    if binary:
        # exactly one whitespace byte separates the header from the raster
        if pos >= len(data) or not data[pos : pos + 1].isspace():
            raise ValueError(f"{path}: malformed PGM header")
        raster = data[pos + 1 :]
        if len(raster) < width * height:
            raise ValueError(f"{path}: truncated pixel data")
        pixels = np.frombuffer(raster[: width * height], dtype=np.uint8)
    else:
        values = data[pos:].split()
        if len(values) < width * height:
            raise ValueError(f"{path}: truncated pixel data")
        if len(values) > width * height:
            raise ValueError(f"{path}: trailing data after pixels")
        ints = _decimals(values, path, "pixel value")
        if any(v > 255 for v in ints):
            raise ValueError(f"{path}: pixel value out of range")
        pixels = np.array(ints, dtype=np.uint8)
    return pixels.reshape(height, width)


def save_pgm(img: np.ndarray, path) -> None:
    arr = np.asarray(img)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise ValueError("image must be a 2-D uint8 array")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def pad_to_blocks(img: np.ndarray, geom: BlockGeometry) -> np.ndarray:
    """Edge-replicate right/bottom so both dimensions divide the block shape."""
    h, w = img.shape
    pad_h = (-h) % geom.block_h
    pad_w = (-w) % geom.block_w
    if pad_h == 0 and pad_w == 0:
        return img
    return np.pad(img, ((0, pad_h), (0, pad_w)), mode="edge")


def blockify(img: np.ndarray, geom: BlockGeometry) -> np.ndarray:
    """Split into block vectors, blocks scanned row-major, components row-major.

    Returns an (n_blocks, k) float64 array; pads by edge replication first if
    the dimensions do not divide.
    """
    arr = np.asarray(img)
    if arr.ndim != 2:
        raise ValueError("image must be 2-D")
    padded = pad_to_blocks(arr, geom)
    h, w = padded.shape
    by, bx = geom.block_h, geom.block_w
    blocks = (
        padded.reshape(h // by, by, w // bx, bx)
        .transpose(0, 2, 1, 3)
        .reshape(-1, geom.k)
    )
    return blocks.astype(np.float64)


def deblockify(vectors: np.ndarray, geom: BlockGeometry, width: int, height: int) -> np.ndarray:
    """Inverse of blockify for the original (pre-padding) dimensions.

    Components are rounded half up, then clamped to [0, 255].
    """
    arr = np.asarray(vectors, dtype=np.float64)
    rows, cols = geom.grid(width, height)
    if arr.shape != (rows * cols, geom.k):
        raise ValueError(
            f"expected {rows * cols} vectors of dimension {geom.k}, got shape {arr.shape}"
        )
    by, bx = geom.block_h, geom.block_w
    padded = (
        arr.reshape(rows, cols, by, bx)
        .transpose(0, 2, 1, 3)
        .reshape(rows * by, cols * bx)
    )
    clamped = np.clip(np.floor(padded + 0.5), 0, 255).astype(np.uint8)
    return clamped[:height, :width]


def psnr(original: np.ndarray, decoded: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; identical images give math.inf."""
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(decoded, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    mse = float(((a - b) ** 2).mean())
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)

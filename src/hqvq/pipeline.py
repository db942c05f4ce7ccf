"""End-to-end codec pipeline: block encoding, index streams, stats and reports."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, check_seed
from .codebook import distances_to_codebook  # noqa: F401 (perfbench/spans.py wraps it by name)
from .encoder import PATHS, EncodeBatch, EncodePath, EncoderConfig, encode
from .grover import derive_rng
from .image import BlockGeometry, blockify, deblockify
from .neighborhood import NeighborhoodTable

STREAM_MAGIC = b"VQIX"
STREAM_VERSION = 1
MAX_CODEBOOK_SIZE = 65536


def check_codebook_size(n: int) -> None:
    """Reject a codebook size the stream format cannot hold: 1 <= N <= MAX_CODEBOOK_SIZE."""
    if not 1 <= n <= MAX_CODEBOOK_SIZE:
        raise ValueError(f"codebook size {n} outside 1..{MAX_CODEBOOK_SIZE}")


@dataclass(frozen=True, eq=False)
class IndexStream:
    """Encoded image: one codebook index per block, plus geometry to invert it.

    Construction enforces the stream format, so every ``IndexStream`` can be
    serialized and decoded: 1 <= N <= MAX_CODEBOOK_SIZE, a positive image
    size, one index per block and every index in [0, N).
    """

    n_codevectors: int
    block_w: int
    block_h: int
    width: int
    height: int
    indices: np.ndarray  # 1-D uint16, row-major block order

    def __post_init__(self):
        n = self.n_codevectors
        check_codebook_size(n)
        if self.width < 1 or self.height < 1:
            raise ValueError(f"bad image size {self.width}x{self.height}")
        rows, cols = self.geometry.grid(self.width, self.height)
        raw = np.asarray(self.indices)
        if raw.shape != (rows * cols,) or not np.issubdtype(raw.dtype, np.integer):
            raise ValueError(
                f"expected {rows * cols} integer indices, one per block, "
                f"got {raw.dtype} of shape {raw.shape}"
            )
        lo, hi = int(raw.min()), int(raw.max())
        if lo < 0 or hi >= n:
            raise ValueError(f"index {lo if lo < 0 else hi} out of range for codebook of {n}")
        idx = np.array(raw, dtype=np.uint16)  # own copy: frozen below
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __eq__(self, other):
        if not isinstance(other, IndexStream):
            return NotImplemented
        return (
            (self.n_codevectors, self.block_w, self.block_h, self.width, self.height)
            == (other.n_codevectors, other.block_w, other.block_h, other.width, other.height)
            and np.array_equal(self.indices, other.indices)
        )

    @property
    def geometry(self) -> BlockGeometry:
        return BlockGeometry(block_w=self.block_w, block_h=self.block_h)


def serialize_stream(stream: IndexStream) -> bytes:
    """Bit-exact binary format: magic, six u32 LE fields, then u16 LE indices."""
    header = STREAM_MAGIC + struct.pack(
        "<6I",
        STREAM_VERSION,
        stream.n_codevectors,
        stream.block_w,
        stream.block_h,
        stream.width,
        stream.height,
    )
    return header + stream.indices.astype("<u2").tobytes()


def parse_stream(data: bytes) -> IndexStream:
    """Inverse of serialize_stream; ``IndexStream`` checks the fields it reads."""
    if data[:4] != STREAM_MAGIC:
        raise ValueError("bad magic: not an index stream")
    if len(data) < 4 + 24:
        raise ValueError("truncated index stream header")
    version, n, bw, bh, w, h = struct.unpack("<6I", data[4:28])
    if version != STREAM_VERSION:
        raise ValueError(f"unsupported stream version {version}")
    body = data[28:]
    if len(body) % 2:
        raise ValueError(f"odd number of index bytes: {len(body)}")
    indices = np.frombuffer(body, dtype="<u2")
    return IndexStream(
        n_codevectors=n, block_w=bw, block_h=bh, width=w, height=h, indices=indices
    )


@dataclass(frozen=True)
class PartitionStats:
    """Per-run aggregates: region fractions, path counts, and query meters."""

    n_vectors: int
    a: float  # fraction with nearest distance < delta0/2
    b: float  # fraction in the threshold shell
    c: float  # fraction beyond the threshold
    sub1_marked: float  # fraction stage 1 marks (t_s = 1): within its nearest codevector's radius
    count_sub1: int
    count_sub2: int
    count_fallback: int
    mean_grover_iterations: float
    max_grover_iterations: int
    mean_classical_evals: float
    max_classical_evals: int
    mean_table_reads: float  # binary-search probes and entries the two stages' lookups and the walks read
    mean_sub1_domain: float  # the size of stage 1's search domain S(x), per block
    mean_sub2_domain: float  # stage 2's window W_t, per block (its register holds 2 W_t)
    paper_mean_grover_iterations: float  # the paper's configuration: stage 1 over all N
    paper_mean_classical_evals: float  # the paper's scans: h's whole list after a hit, all N in a fallback


def region_fractions(nearest, delta0: float, delta_hat: float) -> tuple[float, float, float]:
    """Shares of inputs in S, T \\ S and I \\ T, from nearest-codevector distances.

    S holds inputs closer than delta0/2 to some codevector and T those closer
    than delta_hat (both strict <); I \\ T is everything else.
    """
    nearest = np.asarray(nearest)
    total = nearest.size
    if total == 0:
        raise ValueError("no distances to classify")
    in_s = nearest < delta0 / 2.0
    n_s = int(np.count_nonzero(in_s))
    n_t = int(np.count_nonzero(in_s | (nearest < delta_hat)))
    return n_s / total, (n_t - n_s) / total, (total - n_t) / total


def _mean(counts: np.ndarray) -> float:
    """The mean of an int64 array, with the bits of ``counts.mean()``: its exact sum (below 2**53) over the size."""
    return int(counts.sum()) / counts.size


def _build_stats(batch: EncodeBatch, fractions) -> PartitionStats:
    counts = {p: int(np.count_nonzero(batch.path == i)) for i, p in enumerate(PATHS)}
    grover = batch.meter.grover_iterations
    classical = batch.meter.classical_distance_evals
    a, b, c = fractions
    return PartitionStats(
        n_vectors=int(batch.path.size), a=a, b=b, c=c,
        sub1_marked=int(np.count_nonzero(batch.facts.t_s)) / batch.path.size,
        count_sub1=counts[EncodePath.SUB1],
        count_sub2=counts[EncodePath.SUB2],
        count_fallback=counts[EncodePath.CLASSICAL_FALLBACK],
        mean_grover_iterations=_mean(grover),
        max_grover_iterations=int(grover.max()),
        mean_classical_evals=_mean(classical),
        max_classical_evals=int(classical.max()),
        mean_table_reads=_mean(batch.meter.table_reads),
        mean_sub1_domain=_mean(batch.facts.domain_s),
        mean_sub2_domain=_mean(batch.facts.domain_t),
        paper_mean_grover_iterations=_mean(batch.paper.grover_iterations),
        paper_mean_classical_evals=_mean(batch.paper.classical_distance_evals),
    )


def encode_vectors(
    vectors: np.ndarray,
    codebook: Codebook,
    table: NeighborhoodTable,
    cfg: EncoderConfig,
) -> tuple[np.ndarray, PartitionStats, EncodeBatch]:
    """Encode a batch of vectors in one ``encode`` call.

    Returns (indices, stats, batch).  ``batch`` is a lazy view of the run: a
    sequence with one ``EncodeOutcome`` per vector, each built only when read.
    Block ``ordinal``'s draw for slot s is element ``ordinal`` of
    ``derive_rng(cfg.master_seed, s).random(M)``, so its outcome does not
    depend on M or on the other vectors.  The region fractions in ``stats``
    come from ``region_fractions`` over each vector's nearest distance,
    taken from the distance pass the simulator already needs, so they add no
    metered work.  It checks only that ``cfg.delta_hat`` is the threshold
    ``table`` was built for, the one rule that reads ``cfg``; ``encode``
    checks ``vectors`` and the table's size.
    """
    if table.delta_hat != cfg.delta_hat:
        raise ValueError(
            f"neighborhood table delta_hat {table.delta_hat} does not match "
            f"the encoder's delta_hat {cfg.delta_hat}"
        )

    def draw(slot: int) -> np.ndarray:  # encode calls it only once the rows are checked
        return derive_rng(cfg.master_seed, slot).random(len(vectors))

    batch = encode(vectors, codebook, table, draw)
    fractions = region_fractions(batch.facts.nearest, codebook.delta0, cfg.delta_hat)
    return batch.facts.index, _build_stats(batch, fractions), batch


def check_geometry(geom: BlockGeometry, codebook: Codebook) -> None:
    """Reject blocks whose dimension is not the codebook's, naming both: the one check for encode and decode.

    Encoding checks before blockifying, which would pad the image to the block size, however large.
    """
    if geom.k != codebook.k:
        raise ValueError(
            f"dimension mismatch: block geometry gives dimension {geom.k}, codebook has {codebook.k}"
        )


def encode_image(
    img: np.ndarray,
    codebook: Codebook,
    table: NeighborhoodTable,
    cfg: EncoderConfig,
    geom: BlockGeometry = BlockGeometry(),
) -> tuple[IndexStream, PartitionStats]:
    check_geometry(geom, codebook)
    vectors = blockify(img, geom)
    indices, stats, _ = encode_vectors(vectors, codebook, table, cfg)
    h, w = np.asarray(img).shape
    stream = IndexStream(
        n_codevectors=codebook.n,
        block_w=geom.block_w,
        block_h=geom.block_h,
        width=w,
        height=h,
        indices=indices,
    )
    return stream, stats


def decode_image(stream: IndexStream, codebook: Codebook) -> np.ndarray:
    """The image ``stream`` encodes: the codebook must have its N and, by ``check_geometry``, its block dimension."""
    if stream.n_codevectors != codebook.n:
        raise ValueError(
            f"stream was encoded with {stream.n_codevectors} codevectors, "
            f"codebook has {codebook.n}"
        )
    geom = stream.geometry
    check_geometry(geom, codebook)
    vectors = codebook.vectors[stream.indices]
    return deblockify(vectors, geom, stream.width, stream.height)


PURE_QUANTUM_FACTOR = 45.0  # reported operation count of the all-quantum encoder


def report(stats: PartitionStats, n: int) -> str:
    """Machine-readable key=value summary of one encode run.

    ``frac_s`` is the paper's stage-1 region, nearest distance below
    delta0/2; ``frac_sub1_marked`` is the share stage 1 marks, below the
    nearest codevector's own radius, never smaller.  ``ops_per_block`` is
    the mean search iterations plus the mean classical evaluations, and
    ``ratio_ops_vs_sqrt_n`` sets it against the paper's sqrt(N) claim.
    ``mean_table_reads`` is what the two stages' lookups and the finishing
    walks read, beside the operations rather than in them,
    ``mean_sub1_domain`` the mean size of stage 1's domain S(x) and
    ``mean_sub2_domain`` the mean size W_t of stage 2's.  The ``paper_``
    keys are the same run charged as the paper's configuration: both stages
    over all N, h's whole neighbor list after a stage-2 hit, all N
    codevectors in a fallback; ``paper_ops_per_block`` is its iterations
    plus its evaluations.
    """
    sqrt_n = math.sqrt(n)
    ops = stats.mean_grover_iterations + stats.mean_classical_evals
    paper_ops = stats.paper_mean_grover_iterations + stats.paper_mean_classical_evals
    lines = [
        f"n={n}",
        f"sqrt_n={sqrt_n!r}",
        f"vectors={stats.n_vectors}",
        f"mean_grover_iters={stats.mean_grover_iterations!r}",
        f"max_grover_iters={stats.max_grover_iterations}",
        f"mean_classical_evals={stats.mean_classical_evals!r}",
        f"max_classical_evals={stats.max_classical_evals}",
        f"frac_s={stats.a!r}",
        f"frac_t_minus_s={stats.b!r}",
        f"frac_i_minus_t={stats.c!r}",
        f"frac_sub1_marked={stats.sub1_marked!r}",
        f"ratio_vs_sqrt_n={stats.mean_grover_iterations / sqrt_n!r}",
        f"ops_per_block={ops!r}",
        f"ratio_ops_vs_sqrt_n={ops / sqrt_n!r}",
        f"mean_table_reads={stats.mean_table_reads!r}",
        f"mean_sub1_domain={stats.mean_sub1_domain!r}",
        f"mean_sub2_domain={stats.mean_sub2_domain!r}",
        f"paper_mean_grover_iters={stats.paper_mean_grover_iterations!r}",
        f"paper_mean_classical_evals={stats.paper_mean_classical_evals!r}",
        f"paper_ops_per_block={paper_ops!r}",
        f"ratio_vs_pure_quantum={stats.mean_grover_iterations / (PURE_QUANTUM_FACTOR * sqrt_n)!r}",
        f"count_sub1={stats.count_sub1}",
        f"count_sub2={stats.count_sub2}",
        f"count_fallback={stats.count_fallback}",
    ]
    return "\n".join(lines) + "\n"


def grid_codebook(n: int) -> Codebook:
    """Square-lattice codebook in 2-D with spacing 10; n must be a positive perfect square.

    Every pairwise distance is at least 10, so delta0 == 10 and all three
    encoder regions are realizable inside the lattice.
    """
    side = round(math.sqrt(n)) if n > 0 else 0
    if n <= 0 or side * side != n:
        raise ValueError(f"{n} is not a perfect square")
    coords = np.arange(side, dtype=np.float64) * 10.0
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    return Codebook(np.column_stack([xx.ravel(), yy.ravel()]))


def clustered_dataset(
    codebook: Codebook,
    delta_hat: float,
    n_vectors: int,
    seed: int,
) -> np.ndarray:
    """Synthetic inputs matching the three-region mixture around a grid codebook.

    Vectors are placed at controlled radii along diagonal directions from a
    random codevector: inside delta0/2, in the shell [delta0/2, delta_hat), or
    past delta_hat from every codevector (cell centers), in a 90/9/1 mixture.
    For n_vectors > 100 the beyond-threshold count is kept strictly under 1%
    of the total; at least one such vector is always kept, so smaller sets
    carry a larger share (5% of 20, 1% of 100).  ``seed`` is a non-negative int.
    """
    check_seed(seed)
    if codebook.k != 2:
        raise ValueError("clustered dataset generator expects a 2-D grid codebook")
    half = codebook.delta0 / 2.0
    if not 1.02 * half <= delta_hat <= 0.98 * half * math.sqrt(2.0):
        raise ValueError(
            f"delta_hat must lie in [{1.02 * half}, {0.98 * half * math.sqrt(2.0)}] "
            "for the grid geometry"
        )
    rng = np.random.default_rng(seed)
    n_core = round(0.90 * n_vectors)
    n_far = max(1, math.ceil(0.01 * n_vectors) - 1)  # below 1% when n_vectors > 100
    n_shell = n_vectors - n_core - n_far
    if n_shell < 0:
        raise ValueError(f"n_vectors must be at least 5 for the 90/9/1 mixture, got {n_vectors}")
    diag = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.float64) / math.sqrt(2.0)

    rows = []
    centers = codebook.vectors[rng.integers(0, codebook.n, size=n_core)]
    radii = rng.uniform(0.0, 0.98 * half, size=n_core)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n_core)
    rows.append(centers + radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)]))

    # shell and far points use diagonal offsets so the chosen codevector stays nearest
    far_radius = half * math.sqrt(2.0)  # cell-center distance from all four corners
    margin = 0.02 * (far_radius - delta_hat)
    for count, low, high in (
        (n_shell, 1.001 * half, 0.999 * delta_hat),
        (n_far, delta_hat + margin, far_radius - margin),
    ):
        centers = codebook.vectors[rng.integers(0, codebook.n, size=count)]
        radii = rng.uniform(low, high, size=count)
        dirs = diag[rng.integers(0, 4, size=count)]
        rows.append(centers + radii[:, None] * dirs)

    data = np.vstack(rows)
    return data[rng.permutation(data.shape[0])]

"""Per-codevector neighbor lists under a radius threshold, stage 1's widths, plus space accounting.

The table is built classically once per codebook and consulted by the
encoder's finishing search: after a candidate codevector h is verified close
enough to the input, only the neighbors of h need a classical scan.  It keeps
every list once, in projection order, as one sorted key array built from one
``kernels.window_marked`` pass of the codebook over itself, so the scan can
walk a list outward from the input's projection.  It also keeps each
codevector's stage-1 half-width on the mean axis, which decides the
codevectors stage 1 searches for a block (``encoder.block_facts``).
``space_bits`` counts both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .codebook import Codebook


@dataclass(frozen=True, eq=False)
class NeighborhoodTable:
    """Neighbor lists: list i holds every j with d(c[i], c[j]) < ``neighbor_radius``.

    ``keys`` holds i * N + pos(j) for every j in list i, strictly ascending,
    where pos(j) is j's position on ``Codebook.axis``; ``order`` is the
    codebook's ``Codebook.order``, so ``order[key - i * N]`` is the member.
    List i in projection order is the run of keys in [i * N, (i + 1) * N),
    and its entries whose positions lie in [lo, hi) are the keys in
    [i * N + lo, i * N + hi): two ``searchsorted`` calls.  ``count`` holds
    each list's size.  The three arrays are read-only int64.
    ``axis`` is ``Codebook.axis`` and ``sub1_half`` holds, at each axis
    position, that codevector's stage-1 half-width ``kernels.half_width`` of
    its ``sub1_radii``: stage 1 searches codevector ``order[q]`` for a block
    x when |p(x) - axis[q]| <= sub1_half[q].  Both are read-only float64.
    ``delta_hat`` is the encoder threshold the table was built for; the radius
    is positive, so each codevector is always its own neighbor (d == 0) and
    ``inf_omega >= 1``.
    """

    delta_hat: float
    count: np.ndarray
    keys: np.ndarray
    order: np.ndarray
    axis: np.ndarray
    sub1_half: np.ndarray

    @property
    def n(self) -> int:
        return self.count.size

    @property
    def inf_omega(self) -> int:
        """Size of the shortest neighbor list."""
        return int(self.count.min())

    def sizes(self) -> np.ndarray:
        """Every list's size, as the stored (N,) ``count``."""
        return self.count

    def neighbors(self, i) -> np.ndarray:
        """List i in ascending index order, read off its keys; a negative i counts from the end."""
        n = self.n
        i = range(n)[i]  # IndexError outside [-N, N)
        lo, hi = np.searchsorted(self.keys, (i * n, (i + 1) * n))
        return np.sort(self.order[self.keys[lo:hi] - i * n])


def neighbor_radius(delta_hat: float, k: int) -> float:
    """The lists' radius: 2 * delta_hat, widened so the finishing scan holds the argmin.

    Stage 2 verifies h when the computed d'(x, h) < delta_hat, and the scan
    of h's list must hold the row's argmin j, whose d'(x, j) <= d'(x, h).
    With ``kernels.rounding_bound(k)``'s g, a computed distance is within
    g * d of the exact d, so the exact d(x, h) and d(x, j) are below
    delta_hat / (1 - g), the triangle inequality puts d(h, j) below
    2 delta_hat / (1 - g), and the computed d'(h, j) lies below
    2 delta_hat (1 + g) / (1 - g).  Keeping j when d'(h, j) < 2 delta_hat
    (1 + 3g) keeps every such j: 1 + 3g exceeds (1 + g) / (1 - g) by
    g (1 - 3g) / (1 - g), more than the rounding of this product.
    """
    return 2.0 * float(delta_hat) * (1.0 + 3.0 * kernels.rounding_bound(k))


def sub1_radii(codebook: Codebook) -> np.ndarray:
    """Stage 1's per-codevector thresholds: (nearest_other / 2)(1 - 3g), an (N,) array.

    Codevector i is marked when d(x, c_i) < r_i.  In exact arithmetic, with
    r_i = (1/2) min_{j != i} d(c_i, c_j):

    - Uniqueness: two marked i and j would need
      d(c_i, c_j) <= d(x, c_i) + d(x, c_j) < r_i + r_j <= d(c_i, c_j).
    - Optimality: for every j != i,
      d(x, c_j) >= d(c_i, c_j) - d(x, c_i) >= 2 r_i - d(x, c_i) > d(x, c_i),
      so a marked i is the unique nearest codevector.

    Rounding margin: with ``kernels.rounding_bound(k)``'s g, a computed
    distance d' is within g * d of the exact d, and the computed nearest
    distance D'_i is at most (1 + g) times the exact 2 r_i.  Let
    d'(x, c_i) < D'_i/2 (1 - 3g), which with the product's own rounding is
    below r_i (1 + g)(1 - 3g + 3u) < (1 - g) r_i, u = 2**-53 <= g/4.  Then
    for every j != i, d'(x, c_j) >= (1 - g) d(x, c_j) >= 2(1 - g) r_i
    - (1 - g) d(x, c_i) >= 2(1 - g) r_i - d'(x, c_i) > d'(x, c_i): i is the
    computed row's strict argmin, so no other index is marked, and
    d(x, c_i) <= d'(x, c_i) / (1 - g) < r_i.  No radius lies below the
    paper's stage-1 threshold delta0/2 (1 - 3g), as delta0 is the smallest
    D'_i.
    """
    return codebook.nearest_other / 2.0 * (1.0 - 3.0 * kernels.rounding_bound(codebook.k))


def build_neighborhoods(codebook: Codebook, delta_hat: float) -> NeighborhoodTable:
    """Neighbor lists at ``neighbor_radius``: one ``kernels.window_marked`` pass of the codebook over itself.

    The table keeps the pass's counts and ``keys``, each member ranked by
    its position on ``Codebook.axis``, and each codevector's stage-1
    half-width, ``kernels.half_width`` of its ``sub1_radii``, in axis order.
    ``delta_hat`` must be at least half the codebook's minimum pairwise
    distance (NaN is rejected); below that the fast encoding path's region
    structure breaks.
    """
    half_delta0 = codebook.delta0 / 2.0
    if not delta_hat >= half_delta0:  # NaN fails this too
        raise ValueError(f"delta_hat {delta_hat} is not at least delta0/2 = {half_delta0}")
    radius = neighbor_radius(delta_hat, codebook.k)
    # the queries are the codebook, whose projections are sorted already
    order = (codebook.projections, codebook.order)
    _, _, marked, start, count = kernels.window_marked(codebook.vectors, codebook.vectors, radius, order)
    n = codebook.n
    pos = np.empty(n, dtype=np.int64)
    pos[codebook.order] = np.arange(n)  # each codevector's position on the axis
    # the lists lie back to back in ``marked``, in the order of their starts
    by_start = np.argsort(start, kind="stable")
    owner = np.repeat(by_start, count[by_start])
    keys = np.sort(owner * n + pos[marked])
    keys.setflags(write=False)
    half = kernels.half_width(sub1_radii(codebook)[codebook.order], codebook.k, codebook.norm_scale)
    half.setflags(write=False)
    return NeighborhoodTable(
        delta_hat=float(delta_hat), count=count, keys=keys, order=codebook.order, axis=codebook.axis, sub1_half=half
    )


def space_bits(table: NeighborhoodTable) -> int:
    """Exact storage accounting in bits: entries * (ceil(log2 N) + 32).

    entries = sum_i (|list_i| + 1) + 2N + sum_q (|S_q| + 1), over the N
    neighbor lists and the 2N + 1 pieces q below.  Each entry carries a
    ceil(log2 N)-bit index plus a 4-byte payload; the +1 counts the per-list
    head pointer.  The other terms are the table a register over stage 1's
    domain would read.  Codevector i's interval
    [axis_i - sub1_half_i, axis_i + sub1_half_i] has two ends, and the 2N
    sorted ends cut the mean axis into 2N + 1 pieces (an upper end closes
    its interval at the next float), on each of which the domain is one set
    S_q, stored with its head pointer.  |S_q| is the encoder's count at the
    piece's first float, ``kernels.strip_counts`` of the ends; the piece
    below every end holds nothing.
    """
    bits_per_entry = max(1, (table.n - 1).bit_length()) + 32
    starts = np.concatenate([table.axis - table.sub1_half, np.nextafter(table.axis + table.sub1_half, np.inf)])
    members = kernels.strip_counts(starts, np.argsort(starts), table.axis, table.sub1_half)
    pieces = int(members.sum()) + 2 * table.n + 1
    return (int((table.count + 1).sum()) + 2 * table.n + pieces) * bits_per_entry


def dump_table(table: NeighborhoodTable) -> str:
    """Human-readable listing, one line per codevector: ``i: j1 j2 ... jm``."""
    return "\n".join(
        f"{i}: " + " ".join(map(str, table.neighbors(i).tolist())) for i in range(table.n)
    )

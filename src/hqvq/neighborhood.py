"""Per-codevector neighbor lists under a radius threshold, plus space accounting.

The table is built classically once per codebook and consulted by the
encoder's finishing search: after a candidate codevector h is verified close
enough to the input, only the neighbors of h need a classical scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .codebook import Codebook


@dataclass(frozen=True)
class NeighborhoodTable:
    """Sorted index lists: ``lists[i]`` holds every j with d(c[i], c[j]) < ``neighbor_radius``.

    ``delta_hat`` is the encoder threshold the table was built for; the radius
    is positive, so each codevector is always its own neighbor (d == 0) and
    ``inf_omega >= 1``.
    """

    delta_hat: float
    lists: tuple  # tuple of read-only 1-D int64 arrays, each sorted ascending

    @property
    def n(self) -> int:
        return len(self.lists)

    @property
    def inf_omega(self) -> int:
        """Size of the shortest neighbor list."""
        return int(self.sizes().min())

    def sizes(self) -> np.ndarray:
        return np.array([len(l) for l in self.lists], dtype=np.int64)


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


def build_neighborhoods(codebook: Codebook, delta_hat: float) -> NeighborhoodTable:
    """Neighbor lists at ``neighbor_radius``: one ``kernels.within_radius`` window pass.

    ``delta_hat`` must be at least half the codebook's minimum pairwise
    distance (NaN is rejected); below that the fast encoding path's region
    structure breaks.
    """
    half_delta0 = codebook.delta0 / 2.0
    if not delta_hat >= half_delta0:  # NaN fails this too
        raise ValueError(f"delta_hat {delta_hat} is not at least delta0/2 = {half_delta0}")
    lists = kernels.within_radius(codebook.vectors, neighbor_radius(delta_hat, codebook.k))
    return NeighborhoodTable(delta_hat=float(delta_hat), lists=tuple(lists))


def space_bits(table: NeighborhoodTable) -> int:
    """Exact storage accounting: sum of (|list|+1) * (ceil(log2 N) + 32) bits.

    Each entry carries a ceil(log2 N)-bit index plus a 4-byte payload; the +1
    counts the per-list head pointer.
    """
    bits_per_entry = max(1, (table.n - 1).bit_length()) + 32
    return int((table.sizes() + 1).sum()) * bits_per_entry


def dump_table(table: NeighborhoodTable) -> str:
    """Human-readable listing, one line per codevector: ``i: j1 j2 ... jm``."""
    return "\n".join(
        f"{i}: " + " ".join(str(j) for j in lst) for i, lst in enumerate(table.lists)
    )

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
    """Sorted index lists: ``lists[i]`` holds every j with d(c[i], c[j]) < 2 * delta_hat.

    ``delta_hat`` is the encoder threshold the table was built for; the radius
    is positive, so each codevector is always its own neighbor (d == 0) and
    ``inf_omega >= 1``.
    """

    delta_hat: float
    lists: tuple  # tuple of 1-D int64 arrays, each sorted ascending
    inf_omega: int

    @property
    def n(self) -> int:
        return len(self.lists)

    def sizes(self) -> np.ndarray:
        return np.array([len(l) for l in self.lists], dtype=np.int64)


def build_neighborhoods(codebook: Codebook, delta_hat: float) -> NeighborhoodTable:
    """O(N^2) construction of all neighbor lists with radius 2 * delta_hat.

    ``delta_hat`` must be at least half the codebook's minimum pairwise
    distance; below that the fast encoding path's region structure breaks.
    """
    half_delta0 = codebook.delta0 / 2.0
    if delta_hat < half_delta0:
        raise ValueError(
            f"delta_hat {delta_hat} is below delta0/2 = {half_delta0}"
        )
    radius = 2.0 * float(delta_hat)
    lists = kernels.within_radius(codebook.vectors, radius)
    for members in lists:
        members.setflags(write=False)
    inf_omega = min(len(l) for l in lists)
    return NeighborhoodTable(delta_hat=float(delta_hat), lists=tuple(lists), inf_omega=inf_omega)


def space_bits(table: NeighborhoodTable) -> int:
    """Exact storage accounting: sum of (|list|+1) * (ceil(log2 N) + 32) bits.

    Each entry carries a ceil(log2 N)-bit index plus a 4-byte payload; the +1
    counts the per-list head pointer.
    """
    bits_per_entry = max(1, (table.n - 1).bit_length()) + 32
    return int(sum(len(l) + 1 for l in table.lists) * bits_per_entry)


def dump_table(table: NeighborhoodTable) -> str:
    """Human-readable listing, one line per codevector: ``i: j1 j2 ... jm``."""
    return "\n".join(
        f"{i}: " + " ".join(str(j) for j in lst) for i, lst in enumerate(table.lists)
    )

"""Per-codevector neighbor lists under a radius threshold, plus space accounting.

The table is built classically once per codebook and consulted by the
encoder's finishing search: after a candidate codevector h is verified close
enough to the input, only the neighbors of h need a classical scan.  It keeps
every list once, in projection order, as one sorted key array built from one
``kernels.window_marked`` pass of the codebook over itself, so the scan can
walk a list outward from the input's projection.
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
    ``delta_hat`` is the encoder threshold the table was built for; the radius
    is positive, so each codevector is always its own neighbor (d == 0) and
    ``inf_omega >= 1``.
    """

    delta_hat: float
    count: np.ndarray
    keys: np.ndarray
    order: np.ndarray

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


def build_neighborhoods(codebook: Codebook, delta_hat: float) -> NeighborhoodTable:
    """Neighbor lists at ``neighbor_radius``: one ``kernels.window_marked`` pass of the codebook over itself.

    The table keeps the pass's counts and ``keys``, each member ranked by
    its position on ``Codebook.axis``.  ``delta_hat`` must be at
    least half the codebook's minimum pairwise distance (NaN is rejected);
    below that the fast encoding path's region structure breaks.
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
    return NeighborhoodTable(delta_hat=float(delta_hat), count=count, keys=keys, order=codebook.order)


def space_bits(table: NeighborhoodTable) -> int:
    """Exact storage accounting: sum of (|list|+1) * (ceil(log2 N) + 32) bits.

    Each entry carries a ceil(log2 N)-bit index plus a 4-byte payload; the +1
    counts the per-list head pointer.
    """
    bits_per_entry = max(1, (table.n - 1).bit_length()) + 32
    return int((table.count + 1).sum()) * bits_per_entry


def dump_table(table: NeighborhoodTable) -> str:
    """Human-readable listing, one line per codevector: ``i: j1 j2 ... jm``."""
    return "\n".join(
        f"{i}: " + " ".join(map(str, table.neighbors(i).tolist())) for i in range(table.n)
    )

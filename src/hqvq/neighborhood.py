"""Per-codevector neighbor lists under a radius threshold, both stages' search domains, plus space accounting.

The table is built classically once per codebook and consulted by the
encoder's finishing search: after a candidate codevector h is verified close
enough to the input, only the neighbors of h need a classical scan.  It keeps
every list once, in projection order, as one sorted key array built from one
``kernels.window_marked`` pass of the codebook over itself, so the scan can
walk a list outward from the input's projection.  It also keeps the rule
that gives each block's two search domains, ``StripDomains`` on the mean
axis or a ``DiscGrid`` on the plane of the mean and split axes, which
counts them, charges their lookups and sizes them for ``space_bits``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .codebook import Codebook


# For k >= 3 the grid's cell side is half_width(delta_hat) / GRID_SIDE_DIVISOR.
# texture-2x2 at seed 1 (N = 512): 2.751 / 2.991 / 3.584 search iterations per
# block at 16 / 8 / 4, over 29 422 / 7 536 / 1 975 cells whose two lists hold
# 504 k / 138 k / 41 k entries (the neighbor lists hold 56 k); the exact
# discs, a per-block test, would give 2.489.
GRID_SIDE_DIVISOR = 8

# The grid holds at most GRID_CELL_CAP * N cells: its side doubles until it
# does, so its memory is O(N) whatever the codebook's extent.  texture-2x2's
# grid at seed 1 holds 7 536 cells, 14.7 N, so the cap binds only where a far
# codevector, or a few isolated ones in a small codebook, stretch the plane.
GRID_CELL_CAP = 64


@dataclass(frozen=True, eq=False)
class StripDomains:
    """Both stages' search domains as strips on the mean axis: for k <= 2, and where the plane's extent overflows.

    ``axis`` is ``Codebook.axis`` and ``sub1_half`` holds, at each axis
    position, that codevector's ``kernels.half_width`` of its ``sub1_radii``
    (both read-only float64); ``sub2_half`` is ``half_width(delta_hat)``.
    Stage 1 searches S(x), the codevectors whose own interval holds p(x),
    |p(x) - axis[q]| <= sub1_half[q]: an interval-stabbing count.  It holds
    every index stage 1 can mark, since a marked i has a computed
    d(x, c_i) < r_i, the case ``half_width``'s proof covers, applied to each
    i.  Stage 2 searches the run of the axis within ``sub2_half`` of p(x),
    which holds every index marked at delta_hat by the same proof.
    The 2N sorted interval ends cut the axis into 2N + 1 pieces (an upper
    end closes its interval at the next float), on each of which S(x) is one
    set S_q, stored with its head pointer: stage 1's lookup reads
    bit_length(2N) + 1 entries, a binary search over the ends and the
    piece's count, and stage 2's 2 bit_length(N), two over the axis.
    """

    axis: np.ndarray
    sub1_half: np.ndarray
    sub2_half: float

    def counts(self, rows, proj, order) -> tuple[np.ndarray, np.ndarray]:
        """(|S(x)|, W_t) of each row, its ``proj`` and ``order`` from ``kernels.projection_order``: two int64 arrays."""
        return tuple(kernels.strip_counts(proj, order, self.axis, half) for half in (self.sub1_half, self.sub2_half))

    def reads(self, entered):
        """One block's lookup reads: stage 1's, plus stage 2's where ``entered`` (a bool or bool array)."""
        n = self.axis.size
        return (2 * n).bit_length() + 1 + 2 * n.bit_length() * entered

    def entries(self) -> int:
        """The 2N ends, plus sum_q (|S_q| + 1) over the pieces, |S_q| counted at each piece's first float."""
        starts = np.concatenate([self.axis - self.sub1_half, np.nextafter(self.axis + self.sub1_half, np.inf)])
        members = kernels.strip_counts(starts, np.argsort(starts), self.axis, self.sub1_half)
        return 2 * starts.size + 1 + int(members.sum())


@dataclass(frozen=True, eq=False)
class DiscGrid:
    """Both stages' search domains for k >= 3, read off a bucket grid on the (p, q) plane.

    p and q are a row's ``kernels.projections`` and
    ``kernels.split_projections``, coordinates on two orthonormal axes, so
    d(x, c)^2 >= (p(x) - p(c))^2 + (q(x) - q(c))^2: every codevector within
    R of x lies in x's disc of radius ``kernels.half_width(R)`` on the plane,
    by ``half_width``'s proof.  A point's cell coordinates are
    ``cell_coordinates`` of p and of q, and its cell is their floor,
    (column, row).  The grid holds columns low_p ..
    low_p + cols - 1 and rows low_q .. low_q + rows - 1, with (cols, rows)
    the shape of ``sub1`` and ``sub2`` (read-only int64):

    - ``sub1[a, b]`` counts the codevectors i whose stage-1 disc, of radius
      half_width(r_i), r_i = ``sub1_radii``[i], meets cell (low_p + a, low_q + b);
    - ``sub2[a, b]`` counts those whose stage-2 disc, of radius
      half_width(delta_hat), meets it.

    A block outside the grid counts 0 in both.  A disc that holds a block
    meets the block's cell (``disc_grid`` holds the proof), so a block's
    stage-1 count holds every index stage 1 can mark, and its stage-2 count
    every index marked at delta_hat.  Each cell stores its two lists behind
    one head pointer, and a block's cell is arithmetic on the block, so each
    stage's lookup reads one entry.
    """

    origin_p: float
    origin_q: float
    side: float
    low_p: int
    low_q: int
    sub1: np.ndarray
    sub2: np.ndarray

    def counts(self, rows, proj, order) -> tuple[np.ndarray, np.ndarray]:
        """``lookup`` at each row's (``proj``, ``kernels.split_projections``), as ``StripDomains.counts``."""
        return self.lookup(proj, kernels.split_projections(rows))

    def reads(self, entered):
        """One block's lookup reads: one cell, plus one where ``entered``, as ``StripDomains.reads``."""
        return 1 + entered

    def entries(self) -> int:
        """sum_c (|S_c| + |T_c| + 1) over the cells."""
        return int(self.sub1.sum()) + int(self.sub2.sum()) + self.sub1.size

    def lookup(self, p, q) -> tuple[np.ndarray, np.ndarray]:
        """(stage 1's count, stage 2's count) of the cell of each point (p[i], q[i]): two int64 arrays."""
        cols, rows = self.sub1.shape
        a = np.floor(cell_coordinates(p, self.origin_p, self.side)) - self.low_p
        b = np.floor(cell_coordinates(q, self.origin_q, self.side)) - self.low_q
        inside = (a >= 0) & (a < cols) & (b >= 0) & (b < rows)
        # outside cells, inf included, read cell 0 and count 0
        cell = (np.where(inside, a, 0) * rows + np.where(inside, b, 0)).astype(np.int64)
        return self.sub1.ravel().take(cell) * inside, self.sub2.ravel().take(cell) * inside


def cell_coordinates(values, origin: float, side: float):
    """Coordinates in cells on one axis of the grid: (values - origin) / side, for blocks and disc centres alike."""
    return (values - origin) / side


def disc_counts(centers_p, centers_q, radii: np.ndarray, low_p: int, low_q: int, shape) -> np.ndarray:
    """How many discs of each set meet each cell of a (cols, rows) grid, in cell coordinates: (sets, cols, rows) int64.

    Disc i of set s is centered at (``centers_p[i]``, ``centers_q[i]``)
    with radius ``radii[s, i]``, and spans the columns floor(c_p - R) ..
    floor(c_p + R).  In column a it meets the rows floor(c_q - h) ..
    floor(c_q + h), with h = sqrt(R^2 - gap^2) and gap the distance from c_p
    to [a, a + 1]: one run of rows, added to its set's column-interval
    difference array (+1 at its first row, -1 past its last), whose running
    sum down each column gives the counts.  Discs go in groups of about
    ``cols * rows`` (column, disc) pairs, so the pass's memory stays that of
    the grid.
    """
    sets, n = radii.shape
    cols, rows = shape
    width = rows + 1
    size = cols * width
    cp, cq, radius = np.tile(centers_p, sets), np.tile(centers_q, sets), radii.ravel()
    base = np.repeat(np.arange(sets) * size, n)  # where each disc's set begins in ``diff``
    first = np.floor(cp - radius)
    span = (np.floor(cp + radius) - first).astype(np.int64) + 1
    ends = np.cumsum(span)
    diff = np.zeros(sets * size, dtype=np.int64)
    for group in np.split(np.arange(span.size), np.searchsorted(ends, np.arange(cols * rows, ends[-1], cols * rows))):
        spans = span[group]
        disc = np.repeat(group, spans)
        # each (column, disc) pair's column: the disc's first plus the pair's place in its run
        a = first[disc] + (np.arange(disc.size) - np.repeat(np.cumsum(spans) - spans, spans))
        c, r = cp[disc], radius[disc]
        gap = np.maximum(np.maximum(a - c, c - (a + 1.0)), 0.0)
        chord = np.sqrt(np.maximum(r * r - gap * gap, 0.0))
        # a chord's ends lie inside the grid's rows up to rounding
        bottom = np.clip(np.floor(cq[disc] - chord) - low_q, 0, rows - 1).astype(np.int64)
        top = np.clip(np.floor(cq[disc] + chord) - low_q, 0, rows - 1).astype(np.int64)
        at = base[disc] + (a - low_p).astype(np.int64) * width
        diff += np.bincount(at + bottom, minlength=diff.size)
        diff -= np.bincount(at + top + 1, minlength=diff.size)
    counts = np.cumsum(diff.reshape(sets, cols, width), axis=2)[:, :, :rows]
    counts.setflags(write=False)
    return counts


def disc_grid(codebook: Codebook, sub1_half: np.ndarray, sub2_half: float) -> DiscGrid | None:
    """The ``DiscGrid`` of a k >= 3 codebook, its discs' radii ``sub1_half`` (stage 1, index order) and ``sub2_half``.

    The cells are squares of side ``sub2_half`` / ``GRID_SIDE_DIVISOR`` over
    the codevectors' (p, q) bounding box, widened by the largest disc
    radius; the side doubles until the grid holds at most
    ``GRID_CELL_CAP`` * N cells.  A box whose extent is not finite, as at an
    overflowing or infinite ``sub2_half``, has no grid: None.  The origin
    is the box's lower corner before widening, each axis's smallest
    codevector coordinate, q being ``kernels.split_projections``.

    The cell test keeps every disc that holds a block in the cell the floor
    of its coordinates gives, rounding included.  Radii are in cells,
    fl(w / side) + pad, with pad = 32u B, u = 2**-53, B the largest centre
    coordinate plus the largest radius plus 2.  B bounds every coordinate of
    a cell in the grid and of a centre, so each computed coordinate, two
    roundings from its exact value, lies within 3u B of it.  A block within
    w of codevector c on the plane lies, by ``kernels.half_width``'s proof,
    within w less 2g reach + g s of it; in computed cell coordinates, within
    w / side + 9u B.  The block's cell holds its coordinates, so it meets
    c's padded disc, as tested in cell coordinates: the test's subtractions
    and floors round by u (B + R) each, and the chord's root by at most 6u R
    where R^2 - gap^2 nears 0 (R the padded radius), all within the rest of
    pad.
    """
    n = codebook.n
    p, q = codebook.projections, kernels.split_projections(codebook.vectors)
    origin_p, origin_q = float(p.min()), float(q.min())
    extent = max(float(p.max()) - origin_p, float(q.max()) - origin_q) + 2.0 * max(sub2_half, float(sub1_half.max()))
    if not math.isfinite(extent):
        return None
    cap = GRID_CELL_CAP * n
    # a grid of side s spans at least extent / s cells along its longer axis
    side = max(sub2_half / GRID_SIDE_DIVISOR, extent / cap)
    while True:
        centers = cell_coordinates(p, origin_p, side), cell_coordinates(q, origin_q, side)
        sub1, sub2 = sub1_half / side, sub2_half / side
        bound = max(float(centers[0].max()), float(centers[1].max())) + max(float(sub1.max()), sub2) + 2.0
        pad = 32.0 * 2.0**-53 * bound
        radii = np.stack([sub1 + pad, np.full(n, sub2 + pad)])
        widest = radii.max(axis=0)
        low = [int(np.floor((c - widest).min())) for c in centers]
        shape = tuple(int(np.floor((c + widest).max())) - lo + 1 for c, lo in zip(centers, low))
        if shape[0] * shape[1] <= cap:
            break
        side *= 2.0
    return DiscGrid(origin_p, origin_q, side, low[0], low[1], *disc_counts(*centers, radii, *low, shape))


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
    ``domains``, a ``StripDomains`` or ``DiscGrid``, gives both stages' search domains.
    ``delta_hat`` is the encoder threshold the table was built for; the radius
    is positive, so each codevector is always its own neighbor (d == 0) and
    ``inf_omega >= 1``.
    """

    delta_hat: float
    count: np.ndarray
    keys: np.ndarray
    order: np.ndarray
    domains: StripDomains | DiscGrid

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
    its position on ``Codebook.axis``.  Its domains, at the half-widths
    ``kernels.half_width`` of ``sub1_radii`` and of delta_hat, are the
    ``disc_grid`` for k >= 3 where the plane is finite, else strips.
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
    _, _, marked, start, count = kernels.window_marked(codebook.vectors, codebook, radius, order)
    n = codebook.n
    pos = np.empty(n, dtype=np.int64)
    pos[codebook.order] = np.arange(n)  # each codevector's position on the axis
    # the lists lie back to back in ``marked``, in the order of their starts
    by_start = np.argsort(start, kind="stable")
    owner = np.repeat(by_start, count[by_start])
    keys = np.sort(owner * n + pos[marked])
    keys.setflags(write=False)
    sub1_half = kernels.half_width(sub1_radii(codebook), codebook.k, codebook.norm_scale)
    sub2_half = kernels.half_width(float(delta_hat), codebook.k, codebook.norm_scale)
    domains = disc_grid(codebook, sub1_half, sub2_half) if codebook.k >= 3 else None
    if domains is None:
        sub1_half = sub1_half[codebook.order]
        sub1_half.setflags(write=False)
        domains = StripDomains(codebook.axis, sub1_half, sub2_half)
    return NeighborhoodTable(delta_hat=float(delta_hat), count=count, keys=keys, order=codebook.order, domains=domains)


def space_bits(table: NeighborhoodTable) -> int:
    """Exact storage accounting in bits: entries * (ceil(log2 N) + 32).

    entries = sum_i (|list_i| + 1) over the N neighbor lists, plus the
    domains' ``entries``.  Each entry carries a ceil(log2 N)-bit index plus
    a 4-byte payload; the +1 counts the per-list head pointer.
    """
    return (int((table.count + 1).sum()) + table.domains.entries()) * (max(1, (table.n - 1).bit_length()) + 32)


def dump_table(table: NeighborhoodTable) -> str:
    """Human-readable listing, one line per codevector: ``i: j1 j2 ... jm``."""
    return "\n".join(
        f"{i}: " + " ".join(map(str, table.neighbors(i).tolist())) for i in range(table.n)
    )

"""Support-family geometry: intersection statistics, disjoint refinement,
and sphere-packing point-count bounds.

All regions are finite unions of axis-aligned closed boxes.  Boxes make
intersection tests and refinements exact (per-axis interval arithmetic),
and the "ball meets set" test is implemented by inflating boxes in the
max-norm, which over-counts relative to Euclidean balls and therefore keeps
every derived bound a valid upper bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Box",
    "SupportSet",
    "SupportFamily",
    "RefinementPartition",
    "PackingConfig",
    "GeometryError",
    "RefinementBudgetError",
    "box1d",
    "interval_set",
    "box_table",
    "boxes_meeting",
    "intersection_stats",
    "check_fip_variant",
    "disjoint_refinement",
    "packing_count_bound",
    "shell_count_bound",
    "count_in_ball",
]

DEFAULT_CELL_BUDGET = 2_000_000


class GeometryError(ValueError):
    """Invalid geometric input."""


class RefinementBudgetError(GeometryError):
    """Arrangement cell count exceeded the configured budget."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box [lo_1, hi_1] x ... x [lo_m, hi_m]."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise GeometryError("lo/hi dimension mismatch")
        if not all(l < h for l, h in zip(self.lo, self.hi)):
            raise GeometryError(f"box must have positive volume: {self.lo}, {self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def inflate(self, radius: float) -> "Box":
        return Box(tuple(l - radius for l in self.lo), tuple(h + radius for h in self.hi))

    def intersects(self, other: "Box") -> bool:
        # Closed boxes: touching at a face or corner counts as intersecting.
        return all(
            l1 <= h2 and l2 <= h1
            for l1, h1, l2, h2 in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (n, m) array of points."""
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo) & (pts <= hi), axis=1)


@dataclass(frozen=True)
class SupportSet:
    """Finite union of axis-aligned closed boxes in R^m."""

    boxes: tuple[Box, ...]

    def __post_init__(self):
        if not self.boxes:
            raise GeometryError("SupportSet needs at least one box")
        dims = {b.dim for b in self.boxes}
        if len(dims) != 1:
            raise GeometryError(f"inconsistent box dimensions: {dims}")

    @property
    def dim(self) -> int:
        return self.boxes[0].dim

    def inflate(self, radius: float) -> "SupportSet":
        return SupportSet(tuple(b.inflate(radius) for b in self.boxes))

    def intersects(self, other: "SupportSet") -> bool:
        return any(a.intersects(b) for a in self.boxes for b in other.boxes)

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(len(pts), dtype=bool)
        for b in self.boxes:
            out |= b.contains_points(pts)
        return out

    def bounding_box(self) -> Box:
        lo = tuple(min(b.lo[k] for b in self.boxes) for k in range(self.dim))
        hi = tuple(max(b.hi[k] for b in self.boxes) for k in range(self.dim))
        return Box(lo, hi)


def box1d(lo: float, hi: float) -> Box:
    """Convenience constructor for a 1D interval box."""
    return Box((lo,), (hi,))


def interval_set(lo: float, hi: float) -> SupportSet:
    """Convenience constructor for a 1D single-interval support."""
    return SupportSet((box1d(lo, hi),))


@dataclass(frozen=True)
class SupportFamily:
    """Indexed family of supports Omega_1, ..., Omega_n (1-based indexing
    in all reported index sets)."""

    sets: tuple[SupportSet, ...]

    def __post_init__(self):
        if not self.sets:
            raise GeometryError("SupportFamily must be nonempty")
        dims = {s.dim for s in self.sets}
        if len(dims) != 1:
            raise GeometryError(f"inconsistent support dimensions: {dims}")

    @property
    def dim(self) -> int:
        return self.sets[0].dim

    def __len__(self) -> int:
        return len(self.sets)

    def membership_matrix(self, pts: np.ndarray) -> np.ndarray:
        """(n_points, n_sets) boolean membership matrix."""
        return np.column_stack([s.contains_points(pts) for s in self.sets])


def box_table(sets, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every box of `sets` as one table row: corners lo and hi, (n_boxes, dim)
    each, and owner (n_boxes,), the index in `sets` of the set holding the
    box.  A None entry (a set without a support) owns no row."""
    rows = [(i, b) for i, s in enumerate(sets) if s is not None for b in s.boxes]
    lo = np.array([b.lo for _, b in rows], dtype=float).reshape(-1, dim)
    hi = np.array([b.hi for _, b in rows], dtype=float).reshape(-1, dim)
    return lo, hi, np.array([i for i, _ in rows], dtype=int)


def boxes_meeting(lo: np.ndarray, hi: np.ndarray, qlo, qhi) -> np.ndarray:
    """Per box of the table (every axis of lo and hi but the last, which
    holds the coordinates): does the closed box [lo, hi] meet the closed box
    [qlo, qhi]?  Touching at a face or corner counts, as in `Box.intersects`."""
    return np.all((lo <= qhi) & (qlo <= hi), axis=-1)


# Most entries of one block of `_meeting_blocks`: (query boxes of the block)
# x (coordinates of the box table), so that no comparison table grows with
# the product of the two counts.
_TABLE_ENTRIES = 1 << 16


def _meeting_blocks(lo: np.ndarray, hi: np.ndarray, qlo: np.ndarray, qhi: np.ndarray):
    """`boxes_meeting` of the box table (lo, hi) and each query box of
    (qlo, qhi), (n_queries, m), for blocks of consecutive queries that
    compare at most `_TABLE_ENTRIES` coordinates of the table in all: yields
    (start, meets) per block, meets[j] (shape lo.shape[:-1]) for query
    start + j."""
    step = max(1, _TABLE_ENTRIES // max(lo.size, 1))
    shape = (-1,) + (1,) * (lo.ndim - 1) + qlo.shape[1:]
    for start in range(0, len(qlo), step):
        stop = start + step
        yield start, boxes_meeting(lo, hi, qlo[start:stop].reshape(shape),
                                   qhi[start:stop].reshape(shape))


def intersection_stats(family: SupportFamily) -> tuple[list[set[int]], int]:
    """Pairwise overlap adjacency and the uniform bound n0 = max_i #(I_i).

    I_i = {j != i : Omega_i and Omega_j intersect}; exact per-axis interval
    tests on closed boxes (touching counts).  The box table is compared with
    itself in row blocks (`_meeting_blocks`); each block's meeting box pairs
    become the distinct pairs (i, j != i) of their owners, and the sorted
    pairs of all blocks give each I_i as one slice.  Indices are 1-based.
    """
    n = len(family)
    lo, hi, owner = box_table(family.sets, family.dim)
    pairs = []
    for start, meets in _meeting_blocks(lo, hi, lo, hi):
        rows, cols = np.nonzero(meets)
        i, j = owner[start + rows], owner[cols]
        pairs.append(np.unique((i * n + j)[i != j]))
    i, j = np.divmod(np.unique(np.concatenate(pairs)), n)
    ptr = np.searchsorted(i, np.arange(n + 1)).tolist()
    js = (j + 1).tolist()
    adjacency = [set(js[a:b]) for a, b in zip(ptr[:-1], ptr[1:])]
    n0 = max(len(a) for a in adjacency)
    return adjacency, n0


def _axis_coords(lo: np.ndarray, hi: np.ndarray, cell_budget: int) -> list[np.ndarray]:
    """Sorted unique face coordinates per axis of the box table (lo, hi);
    raises RefinementBudgetError if their arrangement has more than
    `cell_budget` boxes."""
    coords = [np.unique(np.concatenate((lo[:, k], hi[:, k]))) for k in range(lo.shape[1])]
    n_cells = int(np.prod([len(c) - 1 for c in coords]))
    if n_cells > cell_budget:
        raise RefinementBudgetError(
            f"arrangement has {n_cells} cells, budget is {cell_budget}"
        )
    return coords


def _membership_words(lo: np.ndarray, hi: np.ndarray, owner: np.ndarray, n_sets: int,
                      coords: list[np.ndarray]) -> np.ndarray:
    """(n_boxes, ceil(n_sets / 64)) uint64: per arrangement box, its index set
    packed to bits, set i at bit 7 - i % 8 of byte i // 8 of the row.

    The row bytes are those ``np.packbits(member, axis=1)`` gives for the
    box-major boolean (n_boxes, n_sets) membership matrix, zero-padded to
    whole words.  That matrix is never formed: each box (lo, hi) of the
    `box_table` of `n_sets` sets sets its owner's bit in the block of
    arrangement boxes whose lower corner c has lo <= c < hi on every axis,
    its bounds one ``searchsorted`` per axis.  Where the faces of the box
    are coordinates, as in `_axis_coords`, that block is the arrangement
    boxes it covers.
    """
    n_bytes = 8 * -(-n_sets // 64)
    packed = np.zeros([len(c) - 1 for c in coords] + [n_bytes], dtype=np.uint8)
    first = np.column_stack([np.searchsorted(c, lo[:, k]) for k, c in enumerate(coords)])
    last = np.column_stack([np.searchsorted(c, hi[:, k]) for k, c in enumerate(coords)])
    for a, z, i in zip(first.tolist(), last.tolist(), owner.tolist()):
        packed[(*map(slice, a, z), i // 8)] |= np.uint8(0x80 >> i % 8)
    return packed.reshape(-1, n_bytes).view(np.uint64)


def _row_changes(words: np.ndarray) -> np.ndarray:
    """Per row of the 2-D `words`, whether it differs from the row before
    it (True for the first row), one column at a time: an ``any`` over the
    few words of a row is several times slower."""
    changed = np.ones(len(words), dtype=bool)
    changed[1:] = words[1:, 0] != words[:-1, 0]
    for k in range(1, words.shape[1]):
        changed[1:] |= words[1:, k] != words[:-1, k]
    return changed


def _max_depth(lo: np.ndarray, hi: np.ndarray, owner: np.ndarray, n_sets: int,
               coords: list[np.ndarray]) -> int:
    """The most of the `n_sets` sets of the box table (lo, hi, owner) that
    hold one arrangement box of `coords`: the largest popcount of a row of
    `_membership_words`, in which a set whose boxes overlap there holds one
    bit.  The popcounts are summed one word column at a time, as
    `_row_changes` compares."""
    words = _membership_words(lo, hi, owner, n_sets, coords)
    depth = np.zeros(len(words), dtype=np.int64)
    for column in np.bitwise_count(words).T:
        depth += column
    return int(depth.max())


def check_fip_variant(family: SupportFamily, radius: float = 1.0) -> int:
    """Uniform bound n1 on the number of supports meeting any ball B(x, radius).

    Each box is inflated by `radius` per axis (max-norm ball), so the result
    is an exact overlap depth for inflated boxes and an upper bound for the
    Euclidean-ball count.  It is the `_max_depth` of the inflated box table,
    lo - radius and hi + radius (the bits `Box.inflate` gives), over the
    arrangement of its faces.
    """
    if radius <= 0:
        raise GeometryError("radius must be positive")
    lo, hi, owner = box_table(family.sets, family.dim)
    lo, hi = lo - radius, hi + radius
    return _max_depth(lo, hi, owner, len(family),
                      _axis_coords(lo, hi, DEFAULT_CELL_BUDGET))


@dataclass
class RefinementPartition:
    """Disjoint refinement of a support family, as one table of cells.

    Cells are the level sets of x -> I_x = {i : x in Omega_i} restricted to
    the union of the family; they are pairwise disjoint up to shared box
    boundaries (measure zero).  They are stored on the arrangement grid of
    all box faces: `coords[k]` holds the sorted face coordinates on axis k,
    and `labels[j_1, ..., j_m]` the cell id of the closed arrangement box
    prod_k [coords[k][j_k], coords[k][j_k + 1]], or -1 outside the union.
    Cell j's 1-based index set is ``members[ptr[j]:ptr[j + 1]]``, ascending,
    and `boxes[j]` its number of arrangement boxes.
    """

    family: SupportFamily
    coords: list[np.ndarray]
    labels: np.ndarray
    ptr: np.ndarray
    members: np.ndarray
    boxes: np.ndarray

    def __len__(self) -> int:
        return len(self.boxes)

    def index_set(self, j: int) -> frozenset[int]:
        """The 1-based index set of cell j."""
        return frozenset(self.members[self.ptr[j]:self.ptr[j + 1]].tolist())

    def index_set_at(self, x) -> frozenset[int]:
        """Index set of the cell containing the point x (see `cell_ids_at`)."""
        return self.index_sets_at(np.reshape(x, (1, -1)))[0]

    def cell_ids_at(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized classification: cell id per point, -1 for points
        outside the union.

        A point on a shared boundary lies in several closed cells and is
        assigned the smallest id; cells are sorted by index set, so that is
        the lexicographically smallest sorted index set (deterministic
        tie-breaking on a measure-zero set).
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != len(self.coords):
            raise GeometryError(f"expected (n, {len(self.coords)}) points, got {pts.shape}")
        # Padded with "outside" on every side, the grid is indexed directly
        # by the searchsorted positions: per axis, 'left' and 'right' pick
        # the closed intervals ending and starting at the coordinate (the
        # same one unless it lies on a face).
        none = len(self)
        padded = np.pad(np.where(self.labels < 0, none, self.labels), 1,
                        constant_values=none)
        sides = [(np.searchsorted(c, x, "left"), np.searchsorted(c, x, "right"))
                 for c, x in zip(self.coords, pts.T)]
        ids = np.min([padded[idx] for idx in itertools.product(*sides)], axis=0)
        return np.where(ids == none, -1, ids)

    def index_set_matrix(self) -> np.ndarray:
        """(n_cells, n_sets) boolean matrix: row j marks the original sets
        in cell j's index set."""
        out = np.zeros((len(self), len(self.family)), dtype=bool)
        out[np.repeat(np.arange(len(self)), np.diff(self.ptr)), self.members - 1] = True
        return out

    def index_sets_at(self, pts: np.ndarray) -> list[frozenset[int]]:
        """Index set per point for an (n, m) array; empty set outside."""
        return [self.index_set(j) if j >= 0 else frozenset()
                for j in self.cell_ids_at(pts).tolist()]


def disjoint_refinement(
    family: SupportFamily, cell_budget: int = DEFAULT_CELL_BUDGET
) -> RefinementPartition:
    """Partition the union of the family into cells of constant maximal
    index set, returned as the one table of `RefinementPartition`.

    Uses the arrangement grid induced by all box face coordinates; the
    arrangement boxes with equal index set are merged into one cell, so for
    every original set i the number of cells containing i is at most 2^n0.

    Neighbouring arrangement boxes mostly hold the same sets, so the
    bit-packed membership rows (`_membership_words`) first collapse to their
    runs, the maximal blocks of equal consecutive rows in C order; only the
    runs are sorted and grouped, and each box takes its run's group.  The
    groups, ordered as their sorted index lists compare, are the cells: their
    index sets are laid end to end in `members`, one slice of `ptr` each.
    """
    lo, hi, owner = box_table(family.sets, family.dim)
    coords = _axis_coords(lo, hi, cell_budget)
    words = _membership_words(lo, hi, owner, len(family), coords)
    new_run = _row_changes(words)
    runs = words[new_run]
    # Group the runs by their (maximal) index set: one sort of the packed
    # rows, compared as whole words (a sort of opaque byte-string keys is
    # several times slower).  A run's group is the group of its boxes.
    order = np.lexsort(runs.T)
    ordered = runs[order]
    starts = _row_changes(ordered)
    group = np.empty(len(order), dtype=int)
    group[order] = np.cumsum(starts) - 1
    member = np.unpackbits(ordered[starts].view(np.uint8), axis=1, count=len(family))
    # Each group's 1-based index set, ascending, from one nonzero, also as a
    # zero-padded row: 0 sorts before every index, so one lexsort of the
    # rows orders the groups as their sorted index lists compare (a prefix
    # first).  The empty set, outside the union, is no cell.
    rows, cols = np.nonzero(member)
    sizes = np.bincount(rows, minlength=len(member))
    ends = np.cumsum(sizes)
    padded = np.zeros((len(member), sizes.max()), dtype=np.int64)
    padded[rows, np.arange(len(rows)) - (ends - sizes)[rows]] = cols + 1
    order = np.flatnonzero(sizes)
    order = order[np.lexsort(padded[order, ::-1].T)]
    rank = np.full(len(member), -1)
    rank[order] = np.arange(len(order))
    labels = rank[group][np.cumsum(new_run) - 1]
    boxes = np.bincount(labels[labels >= 0], minlength=len(order))
    members = padded[order]
    return RefinementPartition(family=family, coords=coords,
                               labels=labels.reshape([len(c) - 1 for c in coords]),
                               ptr=np.concatenate(([0], np.cumsum(sizes[order]))),
                               members=members[members > 0], boxes=boxes)


def packing_count_bound(m: int, R: float, A: float) -> float:
    """Upper bound (R+A)^m / A^m on the number of 2A-separated centers in a
    closed ball of radius R."""
    if A <= 0:
        raise GeometryError("separation parameter A must be positive")
    if R < 0:
        raise GeometryError("ball radius R must be nonnegative")
    return (R + A) ** m / A**m


def shell_count_bound(m: int, R: float, d: float, A: float) -> float:
    """Upper bound [(R+d+A)^m - (R-A)^m] / A^m on the number of 2A-separated
    centers in the spherical shell of radii [R, R+d).  Requires R > A."""
    if A <= 0:
        raise GeometryError("separation parameter A must be positive")
    if d <= 0:
        raise GeometryError("shell width d must be positive")
    if R <= A:
        raise GeometryError(f"shell bound requires R > A (got R={R}, A={A})")
    return ((R + d + A) ** m - (R - A) ** m) / A**m


@dataclass(frozen=True)
class PackingConfig:
    """Centers R_i in R^m with pairwise separation |R_i - R_j| > 2A."""

    centers: np.ndarray  # (n, m)
    A: float

    def __post_init__(self):
        object.__setattr__(self, "centers", np.atleast_2d(np.asarray(self.centers, dtype=float)))
        if self.A <= 0:
            raise GeometryError("A must be positive")
        c = self.centers
        if c.size and len(c) > 1:
            d2 = np.sum((c[:, None, :] - c[None, :, :]) ** 2, axis=-1)
            np.fill_diagonal(d2, np.inf)
            if d2.min() <= (2 * self.A) ** 2:
                raise GeometryError(
                    f"centers violate separation: min distance "
                    f"{np.sqrt(d2.min()):.6g} <= 2A = {2 * self.A:.6g}"
                )


def count_in_ball(config: PackingConfig, x, R: float) -> int:
    """Exact number of centers in the closed Euclidean ball B(x, R)."""
    if config.centers.size == 0:
        return 0
    x = np.asarray(x, dtype=float)
    d = np.linalg.norm(config.centers - x, axis=1)
    return int(np.count_nonzero(d <= R))

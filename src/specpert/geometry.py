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
    "RefinementCell",
    "RefinementPartition",
    "PackingConfig",
    "GeometryError",
    "RefinementBudgetError",
    "box1d",
    "interval_set",
    "intersection_stats",
    "check_fip_variant",
    "disjoint_refinement",
    "packing_count_bound",
    "shell_count_bound",
    "count_in_ball",
]


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

    def contains(self, x) -> bool:
        return all(l <= xi <= h for l, h, xi in zip(self.lo, self.hi, x))

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

    def contains(self, x) -> bool:
        return any(b.contains(x) for b in self.boxes)

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


def intersection_stats(family: SupportFamily) -> tuple[list[set[int]], int]:
    """Pairwise overlap adjacency and the uniform bound n0 = max_i #(I_i).

    I_i = {j != i : Omega_i and Omega_j intersect}; exact per-axis interval
    tests on closed boxes (touching counts).  Indices are 1-based.
    """
    n = len(family)
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if family.sets[i].intersects(family.sets[j]):
                adjacency[i].add(j + 1)
                adjacency[j].add(i + 1)
    n0 = max((len(a) for a in adjacency), default=0)
    return adjacency, n0


def _axis_coords(boxes: list[Box], dim: int) -> list[np.ndarray]:
    """Sorted unique face coordinates per axis."""
    coords = []
    for k in range(dim):
        vals = sorted({b.lo[k] for b in boxes} | {b.hi[k] for b in boxes})
        coords.append(np.asarray(vals))
    return coords


def _cell_midpoints(coords: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Midpoints of all arrangement cells as an (n_cells, m) array, plus the
    per-axis midpoint vectors (for reconstructing cell bounds)."""
    mids = [0.5 * (c[:-1] + c[1:]) for c in coords]
    grids = np.meshgrid(*mids, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    return pts, mids


def check_fip_variant(family: SupportFamily, radius: float = 1.0) -> int:
    """Uniform bound n1 on the number of supports meeting any ball B(x, radius).

    Each box is inflated by `radius` per axis (max-norm ball), so the result
    is an exact overlap depth for inflated boxes and an upper bound for the
    Euclidean-ball count.  Computed by classifying midpoints of the
    arrangement induced by all inflated box faces.
    """
    if radius <= 0:
        raise GeometryError("radius must be positive")
    inflated = [s.inflate(radius) for s in family.sets]
    boxes = [b for s in inflated for b in s.boxes]
    coords = _axis_coords(boxes, family.dim)
    pts, _ = _cell_midpoints(coords)
    depth = np.zeros(len(pts), dtype=int)
    for s in inflated:
        depth += s.contains_points(pts)
    return int(depth.max())


@dataclass(frozen=True)
class RefinementCell:
    """One cell of the disjoint refinement: the (possibly disconnected)
    region where the maximal index set is exactly `index_set`."""

    region: SupportSet
    index_set: frozenset[int]


@dataclass
class RefinementPartition:
    """Disjoint refinement of a support family.

    Cells are the level sets of x -> I_x = {i : x in Omega_i} restricted to
    the union of the family; they are pairwise disjoint up to shared box
    boundaries (measure zero).
    """

    cells: list[RefinementCell]
    family: SupportFamily

    def index_set_at(self, x) -> frozenset[int]:
        """Index set of the cell containing x.

        Points on shared cell boundaries are assigned to the cell with the
        lexicographically smallest sorted index set (deterministic
        tie-breaking on a measure-zero set).
        """
        candidates = [c.index_set for c in self.cells if c.region.contains(x)]
        if not candidates:
            return frozenset()
        return min(candidates, key=lambda s: sorted(s))

    def cell_ids_at(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized classification: index into `cells` per point, -1 for
        points outside the union.

        Cells are stored sorted by index set, so boundary points (contained
        in several closed cells) resolve to the lexicographically smallest
        index set, matching `index_set_at`.
        """
        pts = np.asarray(pts, dtype=float)
        member = np.zeros((len(pts), len(self.cells)), dtype=bool)
        for j, cell in enumerate(self.cells):
            member[:, j] = cell.region.contains_points(pts)
        ids = np.argmax(member, axis=1)
        ids[~member.any(axis=1)] = -1
        return ids

    def index_set_matrix(self) -> np.ndarray:
        """(n_cells, n_sets) boolean matrix: row j marks the original sets
        in cell j's index set."""
        out = np.zeros((len(self.cells), len(self.family)), dtype=bool)
        for j, cell in enumerate(self.cells):
            for i in cell.index_set:
                out[j, i - 1] = True
        return out

    def index_sets_at(self, pts: np.ndarray) -> list[frozenset[int]]:
        """Index set per point for an (n, m) array; empty set outside."""
        ids = self.cell_ids_at(pts)
        return [self.cells[i].index_set if i >= 0 else frozenset() for i in ids]

    def cells_containing(self, i: int) -> list[RefinementCell]:
        """Cells whose index set contains original index i (1-based)."""
        return [c for c in self.cells if i in c.index_set]


def disjoint_refinement(
    family: SupportFamily, cell_budget: int = 2_000_000
) -> RefinementPartition:
    """Partition the union of the family into cells of constant maximal
    index set.

    Uses the arrangement grid induced by all box face coordinates; the
    arrangement boxes with equal index set are merged into one cell, so for
    every original set i the number of cells containing i is at most 2^n0.
    """
    boxes = [b for s in family.sets for b in s.boxes]
    coords = _axis_coords(boxes, family.dim)
    n_cells = int(np.prod([max(len(c) - 1, 0) for c in coords]))
    if n_cells > cell_budget:
        raise RefinementBudgetError(
            f"arrangement has {n_cells} cells, budget is {cell_budget}"
        )
    pts, mids = _cell_midpoints(coords)
    member = family.membership_matrix(pts)

    # Group arrangement boxes by their (maximal) index set.
    shape = tuple(len(m) for m in mids)
    groups: dict[frozenset[int], list[Box]] = {}
    for flat, row in enumerate(member):
        if not row.any():
            continue
        idx = frozenset(int(i) + 1 for i in np.nonzero(row)[0])
        multi = np.unravel_index(flat, shape)
        lo = tuple(float(coords[k][multi[k]]) for k in range(family.dim))
        hi = tuple(float(coords[k][multi[k] + 1]) for k in range(family.dim))
        groups.setdefault(idx, []).append(Box(lo, hi))

    cells = [
        RefinementCell(region=SupportSet(tuple(bxs)), index_set=idx)
        for idx, bxs in sorted(groups.items(), key=lambda kv: sorted(kv[0]))
    ]
    return RefinementPartition(cells=cells, family=family)


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

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


def count_in_ball(config: PackingConfig, x, R: float) -> int:
    """Exact number of centers in the closed Euclidean ball B(x, R)."""
    if config.centers.size == 0:
        return 0
    x = np.asarray(x, dtype=float)
    d = np.linalg.norm(config.centers - x, axis=1)
    return int(np.count_nonzero(d <= R))

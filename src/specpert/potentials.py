"""Potential families and Stummel-class norms.

A potential term is a profile (constant plateau, Gaussian bump, power-law
spike, or decaying tail) restricted to a box support, optionally with a
certified decay envelope |v(x)| <= C/(1 + |R - x|)^k around its center.

A family samples its terms as one table, not one term at a time: it stacks
the support boxes and each profile kind's arguments once (`_TermTable`), and
one kernel (`_sample_terms`) evaluates many terms at many points, with the
same formula a single profile call uses, so every sample has the same bits.
In that table a term without a support has the one box R^m, so every path
treats it as a term whose box holds every point.
`PotentialFamily.sample_table` samples every term at the grid nodes inside its
boxes with one kernel call; `sample_on` and `AffineFamily.from_potentials`
read that table.

The local Stummel norm integrates |v|^2 over the unit ball around a probe
point, with the singular radial kernel |x-y|^(rho-m) absorbed analytically:
in radial-angular coordinates the integrand carries the weight r^(rho-1)
(or r^(m-1) for rho >= m), which Gauss-Jacobi quadrature integrates exactly.
For a family, one pass over the probes samples each term once per quadrature
node for both the per-term norms and the direct norm of the truncated sum,
with one kernel call per probe for the terms that reach it.  It skips a term
at a probe when none of the term's closed support boxes meets the bounding
box of the probe's nodes: the term is zero at every such node, so skipping it
gives the same bits.  Which terms reach which probe comes from one table,
probes against term boxes, compared in blocks of probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import (
    PackingConfig,
    SupportFamily,
    SupportSet,
    _meeting_blocks,
    box_table,
    check_fip_variant,
    intersection_stats,
    packing_count_bound,
)

__all__ = [
    "ConstantProfile",
    "GaussianBump",
    "PowerSpike",
    "DecayTail",
    "PotentialTerm",
    "PotentialFamily",
    "StummelParams",
    "StummelBound",
    "StummelError",
    "StummelDivergenceError",
    "TailDivergenceError",
    "unit_ball_volume",
    "stummel_local_norm",
    "stummel_class_norm",
    "weighted_sum_stummel_bound",
    "direct_sum_stummel_norm",
    "tail_sum_bound",
    "esssup_sum_norm",
    "make_probe_grid",
]


class StummelError(ValueError):
    """Stummel-norm computation failed."""


class StummelDivergenceError(StummelError):
    """The local weighted integral diverges: profile not in class at x."""


class TailDivergenceError(ValueError):
    """Decay exponent too small: the tail series diverges."""


def unit_ball_volume(m: int) -> float:
    """Volume c_m of the unit ball in R^m."""
    from scipy.special import gamma

    return math.pi ** (m / 2) / gamma(m / 2 + 1)


# ---------------------------------------------------------------------------
# Profiles
#
# Each profile writes its formula once, as a static `formula(pts, *args)`
# that broadcasts over points and over stacked arguments.  `shared()` gives
# the arguments that stay Python scalars and `stacked()` those a family's
# term table stacks one row per term (see `_sample_terms`); calling a profile
# is the formula on its own arguments.  An exponent is shared, not stacked:
# numpy's power takes special paths for some scalar exponents (0.5 by sqrt,
# -1 by reciprocal) that an array of exponents does not, and those paths
# round differently.


def _dist2(pts, center) -> np.ndarray:
    """|pts - center|^2 over the last axis, the axes added in order: the bits
    of ``np.sum((pts - center) ** 2, axis=-1)`` (and of the square of
    ``np.linalg.norm``), without numpy's reduction over a short axis."""
    d2 = (pts[..., 0] - center[..., 0]) ** 2
    for k in range(1, np.shape(pts)[-1]):
        d2 = d2 + (pts[..., k] - center[..., k]) ** 2
    return d2


class _Profile:
    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.formula(pts, *self.shared(), *self.stacked())

    def shared(self) -> tuple:
        return ()


@dataclass(frozen=True)
class ConstantProfile(_Profile):
    value: complex = 1.0

    def stacked(self) -> tuple:
        return (self.value,)

    @staticmethod
    def formula(pts, value):
        return np.full(np.broadcast_shapes(np.shape(pts)[:-1], np.shape(value)), value)

    def sup_abs(self) -> float:
        return abs(self.value)


@dataclass(frozen=True)
class GaussianBump(_Profile):
    """height * exp(-|x - center|^2 / (2 width^2)), for a finite center and
    height and a finite width > 0."""

    center: tuple[float, ...]
    width: float
    height: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"Gaussian width must be finite and > 0, got {self.width}")
        if not all(math.isfinite(x) for x in (*self.center, self.height)):
            raise ValueError(f"Gaussian center {self.center} and height {self.height} "
                             "must be finite")

    def stacked(self) -> tuple:
        return np.asarray(self.center), 2 * self.width**2, self.height

    @staticmethod
    def formula(pts, center, denom, height):
        return height * np.exp(-_dist2(pts, center) / denom)

    def sup_abs(self) -> float:
        return abs(self.height)


@dataclass(frozen=True)
class PowerSpike(_Profile):
    """|x - center|^(-alpha); unbounded at the center."""

    center: tuple[float, ...]
    alpha: float
    scale: float = 1.0

    def shared(self) -> tuple:
        return (-self.alpha,)

    def stacked(self) -> tuple:
        return np.asarray(self.center), self.scale

    @staticmethod
    def formula(pts, power, center, scale):
        d = np.sqrt(_dist2(pts, center))
        with np.errstate(divide="ignore"):
            return scale * d ** power

    def sup_abs(self) -> float:
        return math.inf


@dataclass(frozen=True)
class DecayTail(_Profile):
    """C/(1 + |center - x|)^k, infinite range."""

    center: tuple[float, ...]
    C: float
    k: float

    def shared(self) -> tuple:
        return (self.k,)

    def stacked(self) -> tuple:
        return np.asarray(self.center), self.C

    @staticmethod
    def formula(pts, k, center, C):
        d = np.sqrt(_dist2(pts, center))
        return C / (1.0 + d) ** k

    def sup_abs(self) -> float:
        return abs(self.C)


# ---------------------------------------------------------------------------
# Terms and families


@dataclass(frozen=True)
class PotentialTerm:
    """One potential v_i: a profile restricted to a box support (the
    finite-range part) with optional certified decay data (C, k)."""

    profile: object
    support: SupportSet | None = None
    center: tuple[float, ...] | None = None
    decay: tuple[float, float] | None = None  # (C, k)

    def __post_init__(self):
        if self.support is None and self.center is None:
            raise ValueError("term needs a support or a center")
        if self.decay is not None:
            C, k = self.decay
            if C < 0 or k <= 0:
                raise ValueError(f"invalid decay data (C={C}, k={k})")
            self._spot_check_decay()

    def _spot_check_decay(self):
        """Raise ValueError unless |v| <= C / (1 + |x - center|)^k, up to a
        relative 1e-9 and an absolute 1e-12, at 1000 seeded points within 10
        of the center per axis (the support's lower corner without a center)."""
        C, k = self.decay
        center = np.asarray(self.center if self.center is not None else
                            self.support.bounding_box().lo, dtype=float)
        rng = np.random.default_rng(20260823)
        pts = center + rng.uniform(-10.0, 10.0, size=(1000, center.size))
        vals = np.abs(self.evaluate(pts))
        envelope = C / (1.0 + np.linalg.norm(pts - center, axis=1)) ** k
        if np.any(vals > envelope * (1 + 1e-9) + 1e-12):
            raise ValueError("decay certificate violated on spot-check points")

    @property
    def dim(self) -> int:
        if self.support is not None:
            return self.support.dim
        return len(self.center)

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        vals = np.asarray(self.profile(pts))
        if self.support is not None:
            vals = np.where(self.support.contains_points(pts), vals, 0.0)
        _reject_nan(vals)
        return vals

    def sup_abs(self) -> float:
        return self.profile.sup_abs()


def _reject_nan(vals: np.ndarray) -> None:
    # Singular profiles are allowed; infinities only at isolated points,
    # which quadrature nodes never hit.  NaN (in either part) is a bug.
    if np.isnan(vals).any():
        raise ValueError("non-finite potential sample")


@dataclass(frozen=True)
class _TermTable:
    """A family's terms as arrays, built once per family, for `_sample_terms`.

    box_lo and box_hi, (n_terms, most boxes of a term, m), hold every
    term's closed boxes, the `geometry.box_table` rows of its support,
    padded with empty boxes (lo = inf, hi = -inf); a term without a support
    has the one box R^m.  A group holds the terms of one profile formula
    with equal shared arguments, as (formula, shared, rows, stacked): member
    i's stacked arguments are row rows[i] of the arrays `stacked` (rows[i] =
    0 for the other terms), and group_of[i] is term i's group.  real[i]
    says term i samples real values.
    """

    box_lo: np.ndarray
    box_hi: np.ndarray
    groups: tuple
    group_of: np.ndarray
    real: np.ndarray

    @classmethod
    def of(cls, terms: list[PotentialTerm], dim: int) -> "_TermTable":
        n = len(terms)
        supports = [t.support for t in terms]
        lo, hi, owner = box_table(supports, dim)
        unbounded = np.array([s is None for s in supports])
        slot = np.arange(len(owner)) - np.searchsorted(owner, owner)
        shape = (n, int(slot.max(initial=0)) + 1, dim)
        box_lo, box_hi = np.full(shape, np.inf), np.full(shape, -np.inf)
        box_lo[owner, slot], box_hi[owner, slot] = lo, hi
        box_lo[unbounded, 0], box_hi[unbounded, 0] = -np.inf, np.inf
        members: dict[tuple, list[int]] = {}
        for i, t in enumerate(terms):
            members.setdefault((t.profile.formula, t.profile.shared()), []).append(i)
        groups, group_of = [], np.empty(n, dtype=int)
        for g, ((formula, shared), idx) in enumerate(members.items()):
            rows = np.zeros(n, dtype=int)
            rows[idx] = np.arange(len(idx))
            stacked = tuple(np.array(col) for col in zip(*(terms[i].profile.stacked()
                                                           for i in idx)))
            groups.append((formula, shared, rows, stacked))
            group_of[idx] = g
        real = np.array([not any(np.iscomplexobj(a) for a in t.profile.stacked())
                         for t in terms])
        return cls(box_lo, box_hi, tuple(groups), group_of, real)


def _sample_terms(table: _TermTable, terms: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The samples v_i(x) of the terms i of `table` in the index array `terms`
    at the points `pts` (..., m), broadcast against each other: term
    terms[k] at point pts[k] for terms (N,) and pts (N, m), or every term at
    every point for terms (T, 1) and pts (P, m).

    Each group's formula runs once on the stacked arguments, a mixed family
    keeps each term's own group by `np.where`, and a sample is 0 outside the
    term's closed support boxes (one box holding the point suffices).  So
    every sample has the bits `PotentialTerm.evaluate` gives.  Raises
    ValueError on a NaN sample, as `evaluate` does.
    """
    group = table.group_of[terms]
    vals = None
    for g, (formula, shared, rows, stacked) in enumerate(table.groups):
        part = formula(pts, *shared, *(a[rows[terms]] for a in stacked))
        vals = part if vals is None else np.where(group == g, part, vals)
    lo, hi = table.box_lo[terms], table.box_hi[terms]
    inside = False
    for j in range(lo.shape[-2]):
        in_box = True
        for k in range(lo.shape[-1]):
            in_box = in_box & (pts[..., k] >= lo[..., j, k]) & (pts[..., k] <= hi[..., j, k])
        inside = inside | in_box
    vals = np.where(inside, vals, 0.0)
    _reject_nan(vals)
    return vals


@dataclass
class PotentialFamily:
    """Indexed family {v_i} with cached intersection statistics."""

    terms: list[PotentialTerm]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("PotentialFamily must be nonempty")
        dims = {t.dim for t in self.terms}
        if len(dims) != 1:
            raise ValueError(f"inconsistent term dimensions: {dims}")
        self._n0: int | None = None
        self._n1: dict[float, int] = {}
        self._table: _TermTable | None = None

    @property
    def dim(self) -> int:
        return self.terms[0].dim

    def __len__(self) -> int:
        return len(self.terms)

    def support_family(self) -> SupportFamily:
        if any(t.support is None for t in self.terms):
            raise ValueError("family has infinite-range terms without supports")
        return SupportFamily(tuple(t.support for t in self.terms))

    @property
    def uniform_bound(self) -> float:
        """v = sup_i of sup |v_i|; may be inf for singular profiles."""
        return max(t.sup_abs() for t in self.terms)

    @property
    def n0(self) -> int:
        if self._n0 is None:
            _, self._n0 = intersection_stats(self.support_family())
        return self._n0

    def n1(self, radius: float = 1.0) -> int:
        """Bound on the number of terms meeting any ball of `radius`: the
        `check_fip_variant` depth of the supported terms, plus one for each
        term without a support, which meets every ball."""
        if radius not in self._n1:
            sets = tuple(t.support for t in self.terms if t.support is not None)
            depth = check_fip_variant(SupportFamily(sets), radius) if sets else 0
            self._n1[radius] = depth + len(self.terms) - len(sets)
        return self._n1[radius]

    @property
    def _term_table(self) -> _TermTable:
        """The terms as one `_TermTable`, built on first use."""
        if self._table is None:
            self._table = _TermTable.of(self.terms, self.dim)
        return self._table

    def sample_table(self, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every term's samples at the grid nodes inside its support boxes,
        from one `_sample_terms` call: (ptr, nodes, values), term i's node
        indices (C order, ascending) in nodes[ptr[i]:ptr[i+1]] and its samples
        in the same slice of values.

        The nodes of a box of `_TermTable.box_lo`/`box_hi` are the product of
        the index ranges its closed faces cut from the grid axes: none for a
        padding box, every node for the box R^m of a term without a support.
        So no term is tested against the nodes outside its boxes, and a node
        that several boxes of a term hold is sampled once.
        """
        table, axes, size = self._term_table, grid.axes(), grid.size
        slots = table.box_lo.shape[1]
        lo, hi = (b.reshape(-1, len(axes)) for b in (table.box_lo, table.box_hi))
        start = np.stack([np.searchsorted(ax, lo[:, k], "left")
                          for k, ax in enumerate(axes)], axis=1)
        stop = np.stack([np.searchsorted(ax, hi[:, k], "right")
                         for k, ax in enumerate(axes)], axis=1)
        extent = np.maximum(stop - start, 0)
        count = extent.prod(axis=1)
        # Entry j of box b is its node number j in C order over its index
        # ranges: unravel j by the box's extents, last axis fastest.
        box = np.repeat(np.arange(len(count)), count)
        local = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        node, stride = np.zeros(len(box), dtype=np.int64), 1
        for k in reversed(range(len(axes))):
            node += (start[box, k] + local % extent[box, k]) * stride
            local //= extent[box, k]
            stride *= len(axes[k])
        key = np.unique(box // slots * size + node)
        term, node = np.divmod(key, size)
        values = _sample_terms(table, term, grid.nodes()[node])
        return np.searchsorted(term, np.arange(len(self.terms) + 1)), node, values

    def sample_on(self, grid) -> list[np.ndarray]:
        """Pointwise samples of each v_i at the grid nodes (diagonal of the
        multiplication operator V_i), each in its term's own dtype: the
        `sample_table` samples, 0 at the nodes outside the term's supports."""
        ptr, nodes, values = self.sample_table(grid)
        out = np.zeros((len(self.terms), grid.size), dtype=values.dtype)
        out[np.repeat(np.arange(len(self.terms)), np.diff(ptr)), nodes] = values
        return [row.real.copy() if real and np.iscomplexobj(row) else row
                for row, real in zip(out, self._term_table.real)]


# ---------------------------------------------------------------------------
# Stummel norms


@lru_cache(maxsize=64)
def _radial_rule(q: int, exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for int_0^1 r^exponent g(r) dr, exact for polynomial g.

    Gauss-Jacobi on [-1, 1] with weight (1+t)^exponent, mapped to [0, 1].
    """
    from scipy.special import roots_jacobi

    t, w = roots_jacobi(q, 0.0, exponent)
    r = 0.5 * (t + 1.0)
    w = w / 2.0 ** (exponent + 1.0)
    return r, w


@lru_cache(maxsize=16)
def _angular_rule(m: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-sphere quadrature: directions (n, m) and weights summing to the
    surface measure |S^(m-1)|."""
    if m == 1:
        return np.array([[-1.0], [1.0]]), np.array([1.0, 1.0])
    if m == 2:
        n = max(order, 8)
        theta = 2 * np.pi * np.arange(n) / n
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        return dirs, np.full(n, 2 * np.pi / n)
    if m == 3:
        n_polar = max(order // 2, 4)
        n_azim = max(order, 8)
        u, wu = np.polynomial.legendre.leggauss(n_polar)  # u = cos(theta)
        phi = 2 * np.pi * np.arange(n_azim) / n_azim
        su = np.sqrt(1 - u**2)
        dirs = np.stack(
            [
                np.outer(su, np.cos(phi)),
                np.outer(su, np.sin(phi)),
                np.outer(u, np.ones(n_azim)),
            ],
            axis=-1,
        ).reshape(-1, 3)
        w = np.outer(wu, np.full(n_azim, 2 * np.pi / n_azim)).ravel()
        return dirs, w
    raise ValueError(f"unsupported dimension {m}")


@dataclass(frozen=True)
class StummelParams:
    """Parameters for Stummel-norm quadrature and probe maximization."""

    rho: float
    m: int
    quad_order: int = 48
    angular_order: int = 32
    probe_points: np.ndarray | None = None

    def __post_init__(self):
        if self.quad_order < 4:
            raise ValueError("quadrature order must be >= 4")
        if self.m not in (1, 2, 3):
            raise ValueError(f"unsupported dimension {self.m}")
        if self.probe_points is not None:
            pp = np.atleast_2d(np.asarray(self.probe_points, dtype=float))
            if pp.size == 0:
                raise ValueError("probe grid must be nonempty")
            object.__setattr__(self, "probe_points", pp)


def _ball_rule(params: StummelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit-ball rule: node offsets r*dir (n_r * n_a rows), radial weights wr and
    angular weights wa.  For rho < m the kernel |x-y|^(rho-m) and the surface
    element r^(m-1) combine into r^(rho-1), which Gauss-Jacobi integrates exactly."""
    rho, m = params.rho, params.m
    if rho <= 0:
        raise StummelDivergenceError(f"rho = {rho} <= 0: radial weight r^(rho-1) "
                                     "is not integrable")
    exponent = (m - 1.0) if rho >= m else (rho - 1.0)
    r, wr = _radial_rule(params.quad_order, exponent)
    dirs, wa = _angular_rule(m, params.angular_order)
    return (r[:, None, None] * dirs[None, :, :]).reshape(-1, m), wr, wa


def _ball_norm(vals, wr: np.ndarray, wa: np.ndarray) -> float:
    """sqrt(wr @ |vals|^2 @ wa) for samples at the offsets of `_ball_rule`."""
    return float(_ball_norms(_squared(vals)[None], wr, wa)[0])


def _squared(vals) -> np.ndarray:
    """|vals|^2, which must be finite."""
    sq = np.abs(np.asarray(vals)) ** 2
    if not np.all(np.isfinite(sq)):
        raise StummelError("profile singularity too strong for quadrature")
    return sq


def _ball_norms(sq: np.ndarray, wr: np.ndarray, wa: np.ndarray) -> np.ndarray:
    """sqrt(wr @ sq[k] @ wa) for each ball k of the squared samples sq, (balls,
    nodes of a ball): ``matmul`` makes the vector-matrix product per ball and
    ``vecdot`` the dot, each as it would for that ball alone."""
    integrals = np.vecdot(np.matmul(wr, sq.reshape(len(sq), len(wr), len(wa))), wa)
    if not np.all(np.isfinite(integrals)):
        raise StummelError("non-finite quadrature result")
    return np.sqrt(np.maximum(integrals, 0.0))


def stummel_local_norm(v, x, params: StummelParams) -> float:
    """M_{v,rho}(x): weighted L^2 norm of v over the unit ball around x."""
    offsets, wr, wa = _ball_rule(params)
    return _ball_norm(v(np.asarray(x, dtype=float).reshape(1, params.m) + offsets), wr, wa)


def make_probe_grid(support: SupportSet, margin: float = 1.0, density: int = 9) -> np.ndarray:
    """Regular probe grid covering the support's bounding box plus a margin."""
    bb = support.bounding_box()
    axes = [
        np.linspace(lo - margin, hi + margin, density)
        for lo, hi in zip(bb.lo, bb.hi)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def _probe_points(params: StummelParams) -> np.ndarray:
    if params.probe_points is None:
        raise StummelError("params.probe_points must cover the support plus a margin")
    return params.probe_points


def stummel_class_norm(v, params: StummelParams) -> float:
    """sup_x M_{v,rho}(x) approximated by the maximum over the probe grid
    (a lower estimate of the true supremum)."""
    return max(stummel_local_norm(v, x, params) for x in _probe_points(params))


def _family_sweep(family: PotentialFamily, beta,
                  params: StummelParams) -> tuple[list[float], float]:
    """Stummel norms of each term and of the truncated sum sum_i beta_i v_i from one
    pass over the probes: at each probe, one `_sample_terms` call samples every
    term that reaches it at the probe's nodes, one `_ball_norms` product of
    their squared samples gives their norms there, and the sum is accumulated
    from those samples in term order (missing couplings = 0).

    A term reaches a probe only if one of its `_TermTable` boxes (R^m for a
    term without a support, of infinite range) meets the bounding box of
    that probe's nodes x + offsets.  Any other term is zero at every node,
    and skipping it changes no bit: its norm there would be 0.0, which the
    running maxima, started at 0.0, already hold, and adding beta_i * 0
    (finite beta_i) changes no |sum| value.  That bounding box is
    [x + min offsets, x + max offsets] per axis, the bits of the nodes' own
    minima and maxima, as rounding is monotone; so the reach table, (probes)
    x (terms), comes from one `geometry._meeting_blocks` pass over the probes.
    The arrays of one probe hold (terms reaching it) x (nodes of a ball)
    samples.
    """
    if family.dim != params.m:
        raise StummelError(f"family dimension {family.dim} != params.m = {params.m}")
    offsets, wr, wa = _ball_rule(params)
    table = family._term_table
    probes = _probe_points(params)
    values = beta.values[:len(family.terms)]
    coupling = np.zeros(len(family.terms), dtype=complex)
    coupling[:len(values)] = values
    norms, direct = np.zeros(len(family.terms)), 0.0
    for start, meets in _meeting_blocks(table.box_lo, table.box_hi,
                                        probes + offsets.min(axis=0),
                                        probes + offsets.max(axis=0)):
        for x, reach in zip(probes[start:], meets.any(-1)):
            terms = np.flatnonzero(reach)
            vals = _sample_terms(table, terms[:, None], x.reshape(1, params.m) + offsets)
            norms[terms] = np.maximum(norms[terms], _ball_norms(_squared(vals), wr, wa))
            acc = np.zeros(len(offsets), dtype=complex)
            for weighted in coupling[terms, None] * vals:
                acc += weighted
            direct = max(direct, _ball_norm(acc, wr, wa))
    return norms.tolist(), direct


def direct_sum_stummel_norm(family: PotentialFamily, beta, params: StummelParams) -> float:
    """Stummel norm of the truncated weighted sum, computed from the terms' samples."""
    return _family_sweep(family, beta, params)[1]


@dataclass(frozen=True)
class StummelBound:
    """Certified Stummel bound on sum_i beta_i v_i with the norms it was
    computed from."""

    bound: float
    norms: tuple[float, ...]  # M_{v_i,rho}, one per term
    direct: float  # norm of the truncated sum, computed directly


def weighted_sum_stummel_bound(family: PotentialFamily, beta,
                               params: StummelParams) -> StummelBound:
    """Certified bound ||beta||_p * n1 * max_i M_{v_i,rho} on the Stummel
    norm of sum_i beta_i v_i, returned with the per-term norms and the
    direct norm of the truncated sum, all from one pass over the probes.

    The caller compares `direct` with `bound`; this function does not.
    """
    n1 = family.n1(radius=1.0)
    norms, direct = _family_sweep(family, beta, params)
    bound = beta.declared_norm * n1 * max(norms)
    return StummelBound(bound=bound, norms=tuple(norms), direct=direct)


# ---------------------------------------------------------------------------
# Tail bounds for infinite-range parts


def tail_sum_bound(family: PotentialFamily, x, A: float, l: int) -> float:
    """Uniform bound on sum_i |v_i(x)| for decay-certified terms with
    2A-separated centers.

    Splits the sum into centers within distance l of x (each term <= C,
    count bounded by the ball packing bound) and unit shells [n, n+1) for n >= l
    (term <= C/(1+n)^k, count bounded by the shell packing bound).  All binomial
    terms of the shell-count polynomial are kept explicitly and summed with
    the Hurwitz zeta function.  Finite only for k > m.
    """
    from scipy.special import zeta

    if not family.terms:
        return 0.0
    if any(t.decay is None for t in family.terms):
        raise ValueError("tail_sum_bound requires decay data (C, k) on every term")
    if any(t.center is None for t in family.terms):
        raise ValueError("tail_sum_bound requires a center on every term")
    m = family.dim
    C = max(t.decay[0] for t in family.terms)
    k = min(t.decay[1] for t in family.terms)
    if k <= m:
        raise TailDivergenceError(f"divergent tail: requires k > m (got k={k}, m={m})")
    if l <= A:
        raise ValueError(f"inner radius l must exceed A (got l={l}, A={A})")
    if l < 1:
        raise ValueError("inner radius l must be a positive integer")
    # Validates the separation assumption as a side effect.
    PackingConfig(np.array([t.center for t in family.terms]), A)

    inner = C * packing_count_bound(m, float(l), A)
    # Shell [n, n+1): count <= [(n+1+A)^m - (n-A)^m]/A^m
    #              = sum_{j<m} binom(m,j) [(1+A)^(m-j) - (-A)^(m-j)] n^j / A^m
    # and C/(1+n)^k <= C n^(-k) for n >= 1, so each power j contributes
    # C * coeff_j * zeta_Hurwitz(k - j, l).
    shells = 0.0
    for j in range(m):
        coeff = math.comb(m, j) * ((1 + A) ** (m - j) - (-A) ** (m - j)) / A**m
        shells += coeff * float(zeta(k - j, l))
    return inner + C * shells


def direct_tail_sum(family: PotentialFamily, x) -> float:
    """Direct evaluation of sum_i |v_i(x)| (oracle for tail_sum_bound)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return float(sum(abs(t.evaluate(x)[0]) for t in family.terms))


def esssup_sum_norm(family: PotentialFamily, beta, grid) -> float:
    """Max over grid nodes of |sum_i beta_i v_i(x)| (truncated sum).

    When the family has finite uniform bound v and intersection bound n1,
    asserts the measured value against ||beta||_inf * v * n1.
    """
    samples = family.sample_on(grid)
    acc = np.zeros(grid.size, dtype=complex)
    for b, d in zip(beta.values, samples):
        acc += complex(b) * np.asarray(d)
    measured = float(np.abs(acc).max())
    v = family.uniform_bound
    if np.isfinite(v):
        beta_inf = float(np.abs(np.asarray(beta.values, dtype=complex)).max())
        cap = beta_inf * v * max(family.n1(radius=1.0), 1)
        if measured > cap + 1e-10:
            raise StummelError(
                f"measured sup {measured:.6g} exceeds v*n1 cap {cap:.6g}"
            )
    return measured

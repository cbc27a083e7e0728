"""Potential families and Stummel-class norms.

A potential term is a profile (constant plateau, Gaussian bump, power-law
spike, or decaying tail) restricted to a box support, optionally with a
certified decay envelope |v(x)| <= C/(1 + |R - x|)^k around its center.

The local Stummel norm integrates |v|^2 over the unit ball around a probe
point, with the singular radial kernel |x-y|^(rho-m) absorbed analytically:
in radial-angular coordinates the integrand carries the weight r^(rho-1)
(or r^(m-1) for rho >= m), which Gauss-Jacobi quadrature integrates exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import binom, gamma, roots_jacobi, zeta

from .geometry import (
    PackingConfig,
    SupportFamily,
    SupportSet,
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
    return math.pi ** (m / 2) / gamma(m / 2 + 1)


# ---------------------------------------------------------------------------
# Profiles


@dataclass(frozen=True)
class ConstantProfile:
    value: complex = 1.0

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.full(len(pts), self.value)

    def sup_abs(self) -> float:
        return abs(self.value)


@dataclass(frozen=True)
class GaussianBump:
    center: tuple[float, ...]
    width: float
    height: float = 1.0

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        d2 = np.sum((pts - np.asarray(self.center)) ** 2, axis=1)
        return self.height * np.exp(-d2 / (2 * self.width**2))

    def sup_abs(self) -> float:
        return abs(self.height)


@dataclass(frozen=True)
class PowerSpike:
    """|x - center|^(-alpha); unbounded at the center."""

    center: tuple[float, ...]
    alpha: float
    scale: float = 1.0

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        d = np.linalg.norm(pts - np.asarray(self.center), axis=1)
        with np.errstate(divide="ignore"):
            return self.scale * d ** (-self.alpha)

    def sup_abs(self) -> float:
        return math.inf


@dataclass(frozen=True)
class DecayTail:
    """C/(1 + |center - x|)^k, infinite range."""

    center: tuple[float, ...]
    C: float
    k: float

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        d = np.linalg.norm(pts - np.asarray(self.center), axis=1)
        return self.C / (1.0 + d) ** self.k

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

    def _spot_check_decay(self, n: int = 1000, seed: int = 20260823):
        C, k = self.decay
        center = np.asarray(self.center if self.center is not None else
                            self.support.bounding_box().lo, dtype=float)
        rng = np.random.default_rng(seed)
        pts = center + rng.uniform(-10.0, 10.0, size=(n, center.size))
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
        if not np.all(np.isfinite(vals[vals != 0].real)):
            # Singular profiles are allowed; infinities only at isolated
            # points, which quadrature nodes never hit.  NaN is a bug.
            if np.any(np.isnan(vals)):
                raise ValueError("non-finite potential sample")
        return vals

    def sup_abs(self) -> float:
        return self.profile.sup_abs()


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
        if radius not in self._n1:
            self._n1[radius] = check_fip_variant(self.support_family(), radius)
        return self._n1[radius]

    def sample_on(self, grid) -> list[np.ndarray]:
        """Pointwise samples of each v_i at the grid nodes (diagonal of the
        multiplication operator V_i)."""
        nodes = grid.nodes()
        return [t.evaluate(nodes) for t in self.terms]

    def sum_profile(self, beta) -> "callable":
        """Truncated sum x -> sum_i beta_i v_i(x) (missing couplings = 0)."""
        coeffs = list(beta.values)

        def _eval(pts: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            acc = np.zeros(len(pts), dtype=complex)
            for b, t in zip(coeffs, self.terms):
                acc += complex(b) * t.evaluate(pts)
            return acc

        return _eval


# ---------------------------------------------------------------------------
# Stummel norms


@lru_cache(maxsize=64)
def _radial_rule(q: int, exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for int_0^1 r^exponent g(r) dr, exact for polynomial g.

    Gauss-Jacobi on [-1, 1] with weight (1+t)^exponent, mapped to [0, 1].
    """
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
    tol: float = 1e-8

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


def stummel_local_norm(v, x, params: StummelParams) -> float:
    """M_{v,rho}(x): weighted L^2 norm of v over the unit ball around x.

    For rho >= m the kernel is 1; for 0 < rho < m the kernel |x-y|^(rho-m)
    combines with the surface element r^(m-1) into the radial weight
    r^(rho-1), integrated exactly by the Gauss-Jacobi rule.
    """
    rho, m = params.rho, params.m
    if rho <= 0:
        raise StummelDivergenceError(
            f"rho = {rho} <= 0: radial weight r^(rho-1) is not integrable"
        )
    exponent = (m - 1.0) if rho >= m else (rho - 1.0)
    r, wr = _radial_rule(params.quad_order, exponent)
    dirs, wa = _angular_rule(m, params.angular_order)
    x = np.asarray(x, dtype=float).reshape(1, m)
    # Sample points: (n_radial * n_angular, m)
    pts = (x[:, None, :] + r[:, None, None] * dirs[None, :, :]).reshape(-1, m)
    vals = np.abs(np.asarray(v(pts))) ** 2
    vals = vals.reshape(len(r), len(dirs))
    if not np.all(np.isfinite(vals)):
        raise StummelError("profile singularity too strong for quadrature")
    integral = float(wr @ vals @ wa)
    if not np.isfinite(integral):
        raise StummelError("non-finite quadrature result")
    return math.sqrt(max(integral, 0.0))


def make_probe_grid(support: SupportSet, margin: float = 1.0, density: int = 9) -> np.ndarray:
    """Regular probe grid covering the support's bounding box plus a margin."""
    bb = support.bounding_box()
    axes = [
        np.linspace(lo - margin, hi + margin, density)
        for lo, hi in zip(bb.lo, bb.hi)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def stummel_class_norm(v, params: StummelParams) -> float:
    """sup_x M_{v,rho}(x) approximated by the maximum over the probe grid
    (a lower estimate of the true supremum)."""
    if params.probe_points is None:
        raise StummelError("params.probe_points must cover the support plus a margin")
    return max(stummel_local_norm(v, x, params) for x in params.probe_points)


def direct_sum_stummel_norm(family: PotentialFamily, beta, params: StummelParams) -> float:
    """Stummel norm of the truncated weighted sum, computed directly."""
    return stummel_class_norm(family.sum_profile(beta), params)


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
    direct norm of the truncated sum.

    Raises if the hypotheses fail (unbounded n1 or non-finite M_i) and if
    the directly computed norm of the truncated sum exceeds the bound plus
    the quadrature tolerance.
    """
    n1 = family.n1(radius=1.0)
    norms = []
    for t in family.terms:
        M = stummel_class_norm(t.evaluate, params)
        if not np.isfinite(M):
            raise StummelError("hypotheses violated: M_{v_i,rho} not finite")
        norms.append(M)
    bound = beta.declared_norm * n1 * max(norms)
    direct = direct_sum_stummel_norm(family, beta, params)
    if direct > bound + max(params.tol, 1e-6 * max(bound, 1.0)):
        raise StummelError(
            f"direct norm {direct:.6g} exceeds certified bound {bound:.6g}"
        )
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
        coeff = binom(m, j) * ((1 + A) ** (m - j) - (-A) ** (m - j)) / A**m
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

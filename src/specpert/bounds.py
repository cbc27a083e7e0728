"""Relative (Kato) bound estimation and resolvent certification.

The empirical relative bound scans a grid of trial slopes a and records
b(a) = max over probes of (||V psi|| - a ||H0 psi||)_+ / ||psi||, so the
defining inequality holds on every probe by construction; the reported a
is a lower estimate of the true infimal bound.

Resolvent certification follows the inequality
    b * sup_E |E - lambda|^-1 + a * sup_E |E| |E - lambda|^-1 < 1
with (a, b) the coefficients of ||H0 psi|| and ||psi|| respectively and the
sups taken in closed form over a real interval containing the spectrum of
H0 (E_max may be +inf for operators unbounded above).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .lattice import DiscreteOperator, LatticeError
from .potentials import PotentialFamily

__all__ = [
    "RelativeBound",
    "SpectrumBox",
    "CertificationError",
    "estimate_relative_bound",
    "uniform_sum_norm_bound",
    "kato_stability_check",
    "resolvent_margin",
    "find_resolvent_point",
]


class CertificationError(RuntimeError):
    """A requested resolvent certification cannot be established."""


@dataclass(frozen=True)
class RelativeBound:
    """Empirical relative bound: ||V psi|| <= a ||H0 psi|| + b ||psi|| on
    all recorded probes (slack >= -1e-10)."""

    a: float
    b: float
    probe_count: int = 0
    method: str = "given"
    tradeoff: tuple[tuple[float, float], ...] = field(default=(), repr=False)

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("relative-bound constants must be nonnegative")


@dataclass(frozen=True)
class SpectrumBox:
    """Real interval [E_min, E_max] certified to contain sigma(H0).
    E_max may be +inf (spectrum unbounded above)."""

    E_min: float
    E_max: float

    def __post_init__(self):
        if math.isnan(self.E_min) or math.isnan(self.E_max):
            raise ValueError("spectrum bounds must not be NaN")
        if self.E_min > self.E_max:
            raise ValueError(f"E_min {self.E_min} > E_max {self.E_max}")

    def contains(self, E: float) -> bool:
        return self.E_min <= E <= self.E_max


def _probe_vectors(h0: DiscreteOperator, probes: int, seed: int) -> list[np.ndarray]:
    """50% random complex Gaussian vectors, 50% low-lying eigenvectors of H0."""
    rng = np.random.default_rng(seed)
    d = h0.dim
    n_eig = min(probes // 2, max(d - 2, 1))
    out: list[np.ndarray] = []
    if n_eig > 0 and d > 2:
        if d <= 400:
            _, vecs = np.linalg.eigh(h0.to_dense())
            out.extend(vecs[:, j] for j in range(min(n_eig, d)))
        else:
            # ARPACK's default start vector is unseeded; seed it so the
            # probes, and with them the reported bound, repeat from run to run.
            _, vecs = spla.eigsh(h0.matrix.real.astype(float), k=n_eig, which="SA",
                                 v0=rng.standard_normal(d))
            out.extend(vecs[:, j].astype(complex) for j in range(n_eig))
    while len(out) < probes:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        out.append(v / np.linalg.norm(v))
    return out[:probes]


def estimate_relative_bound(
    V: DiscreteOperator,
    H0: DiscreteOperator,
    probes: int = 64,
    a_grid=None,
    b_cap: float = np.inf,
    seed: int = 0,
) -> RelativeBound:
    """Empirical (a, b) with ||V psi|| <= a ||H0 psi|| + b ||psi|| on all
    probe vectors.

    Returns the pair with the smallest a on the grid whose b(a) stays below
    b_cap, or the pair for the largest grid a otherwise; the full (a, b(a))
    tradeoff curve is attached either way.  The result is a lower estimate
    of the true infimal relative bound.
    """
    if V.dim != H0.dim:
        raise LatticeError(f"dimension mismatch: {V.dim} vs {H0.dim}")
    if probes < 32:
        raise ValueError("need at least 32 probes")
    if a_grid is None:
        a_grid = [0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0]
    a_grid = sorted(float(a) for a in a_grid)

    vecs = _probe_vectors(H0, probes, seed)
    vn = np.array([np.linalg.norm(V.matvec(psi)) for psi in vecs])
    hn = np.array([np.linalg.norm(H0.matvec(psi)) for psi in vecs])
    pn = np.array([np.linalg.norm(psi) for psi in vecs])

    curve = []
    for a in a_grid:
        b = float(np.max(np.maximum(vn - a * hn, 0.0) / pn))
        curve.append((a, b))
    for a, b in curve:
        if b <= b_cap:
            return RelativeBound(a, b, probe_count=probes, method="probe-scan",
                                 tradeoff=tuple(curve))
    a, b = curve[-1]
    return RelativeBound(a, b, probe_count=probes, method="probe-scan",
                         tradeoff=tuple(curve))


def uniform_sum_norm_bound(family: PotentialFamily, grid) -> float:
    """Bound v * max(n0, 1) on ||sum_i |V_i|||, cross-checked against the
    norm of the assembled diagonal operator (its largest entry).

    The disjoint case n0 = 0 uses the bound v (a single support is the
    worst case when nothing overlaps).
    """
    v = family.uniform_bound
    if not np.isfinite(v):
        raise ValueError("family is not uniformly bounded")
    n0 = family.n0
    bound = v * max(n0, 1)

    diag = np.zeros(grid.size)
    for d in family.sample_on(grid):
        diag += np.abs(np.asarray(d))
    computed = float(diag.max())
    if computed > bound + 1e-8:
        raise ValueError(
            f"computed operator norm {computed:.10g} exceeds bound {bound:.10g}"
        )
    return bound


def kato_stability_check(rb: RelativeBound) -> bool:
    """Stability criterion: strict a < 1 preserves closedness and (for
    symmetric perturbations) selfadjointness of H0 + V."""
    return rb.a < 1.0


def _sup_inv_dist(box: SpectrumBox, lam: complex) -> float:
    """sup over E in [E_min, E_max] of 1/|E - lambda| (closed form)."""
    x, y = lam.real, lam.imag
    dx = max(0.0, box.E_min - x, 0.0 if math.isinf(box.E_max) else x - box.E_max)
    if math.isinf(box.E_max) and x > box.E_min:
        dx = 0.0
    dist = math.hypot(dx, y)
    if dist == 0.0:
        return math.inf
    return 1.0 / dist


def _sup_weighted(box: SpectrumBox, lam: complex) -> float:
    """sup over E in [E_min, E_max] of |E|/|E - lambda| (closed form).

    g(E)^2 = E^2/((E-x)^2 + y^2) has interior critical points only at E = 0
    and E = (x^2 + y^2)/x; the sup is attained at one of those or at the
    endpoints (limit 1 as E -> +-inf for unbounded boxes).
    """
    x, y = lam.real, lam.imag

    def g(E: float) -> float:
        denom = math.hypot(E - x, y)
        if denom == 0.0:
            return math.inf
        return abs(E) / denom

    candidates = [box.E_min] if math.isfinite(box.E_min) else []
    if math.isfinite(box.E_max):
        candidates.append(box.E_max)
    for crit in (0.0, (x * x + y * y) / x if x != 0.0 else None):
        if crit is not None and box.E_min <= crit <= box.E_max:
            candidates.append(crit)
    best = max((g(E) for E in candidates), default=0.0)
    if math.isinf(box.E_max) or math.isinf(box.E_min):
        best = max(best, 1.0)  # limit |E|/|E - lambda| -> 1 at infinity
    return best


def resolvent_margin(rb: RelativeBound, box: SpectrumBox, lam: complex) -> float:
    """1 - (b * sup|E-lambda|^-1 + a * sup|E||E-lambda|^-1) over the box.

    Positive margin certifies lambda in rho(H0 + V) for any V satisfying
    ||V psi|| <= a ||H0 psi|| + b ||psi|| with sigma(H0) inside the box.
    The constant-term coefficient b pairs with sup|E-lambda|^-1, the
    relative coefficient a with the |E|-weighted sup.
    """
    lam = complex(lam)
    if lam.imag == 0.0 and box.contains(lam.real):
        raise CertificationError(
            f"lambda = {lam} lies inside the spectrum box; margin undefined"
        )
    return 1.0 - (rb.b * _sup_inv_dist(box, lam) + rb.a * _sup_weighted(box, lam))


def find_resolvent_point(
    rb: RelativeBound,
    box: SpectrumBox,
    y_min: float = 1e-3,
    y_cap: float = 1e12,
    bisect_steps: int = 60,
) -> complex:
    """Smallest tested lambda = i*y (y > 0) with positive resolvent margin.

    Scans a geometric grid upward from y_min and bisects between the last
    failing and first passing y; raises if no y below the cap certifies.
    """
    y = y_min
    prev = None
    while y <= y_cap:
        if resolvent_margin(rb, box, 1j * y) > 0.0:
            if prev is None:
                return 1j * y
            lo, hi = prev, y
            for _ in range(bisect_steps):
                mid = math.sqrt(lo * hi)
                if resolvent_margin(rb, box, 1j * mid) > 0.0:
                    hi = mid
                else:
                    lo = mid
            return 1j * hi
        prev = y
        y *= 2.0
    raise CertificationError(
        f"cannot certify any lambda = i*y with y <= {y_cap:g} "
        f"(a={rb.a}, b={rb.b})"
    )

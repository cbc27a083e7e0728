"""Relative (Kato) bounds and resolvent certification.

A relative bound is a pair (a, b) with ||V psi|| <= a ||H0 psi|| + b ||psi||
for every psi (Kato 1966, ch. IV sec. 1 and V sec. 4).  On the lattice every
V(beta) is bounded, so (a, b) = (0, ||V(beta)||) holds exactly; the `bounds`
task takes b from the Schur test sqrt(||V||_1 ||V||_inf)
(`DiscreteOperator.norm_bound`), which equals max|diag V| for the diagonal
multiplication operators of a grid family and bounds ||V||_2 from above for a
`matrix` family.  Its spectrum box [E_min, E_max] is the lowest and highest
band eigenvalue of H0, each moved outward by the Weyl rounding
delta = d eps ||H0||_1 within which the computed eigenvalues lie.

Resolvent certification follows the inequality
    b * sup_E |E - lambda|^-1 + a * sup_E |E| |E - lambda|^-1 < 1
with (a, b) the coefficients of ||H0 psi|| and ||psi|| respectively and the
sups taken in closed form over a real interval containing the spectrum of
H0 (E_max may be +inf for operators unbounded above).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .potentials import PotentialFamily

__all__ = [
    "RelativeBound",
    "SpectrumBox",
    "CertificationError",
    "uniform_sum_norm_bound",
    "resolvent_margin",
    "find_resolvent_point",
]


class CertificationError(RuntimeError):
    """A requested resolvent certification cannot be established."""


@dataclass(frozen=True)
class RelativeBound:
    """Relative bound: ||V psi|| <= a ||H0 psi|| + b ||psi|| for all psi."""

    a: float
    b: float

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


def _overlap_depth(sets) -> int:
    """The most of the closed supports `sets` that share one point, touching
    counted.

    Supports sharing a point x have boxes holding x, and those boxes meet in
    a box whose lower corner lies in all of them and has a lower box face on
    every axis.  So the depth is the largest count at the nodes of the grid
    of lower face coordinates, the `geometry._max_depth` of the box table on
    that grid, the n1 kernel.  It is at most n0 + 1, n0 of
    `geometry.intersection_stats`.
    """
    lo, hi, owner = geometry.box_table(sets, sets[0].dim)
    # With every upper corner at inf, the coordinates per axis are the
    # unique lower faces plus a trailing inf: arrangement box j is lower-face
    # node j, and the budget counts the nodes.  For floats, c <= hi exactly
    # when c < nextafter(hi, inf), so a box with upper corner
    # nextafter(hi, inf) sets its bit at exactly the nodes in [lo, hi].
    coords = geometry._axis_coords(lo, np.full_like(hi, np.inf), geometry.DEFAULT_CELL_BUDGET)
    return geometry._max_depth(lo, np.nextafter(hi, np.inf), owner, len(sets), coords)


def uniform_sum_norm_bound(family: PotentialFamily, grid) -> float:
    """Bound v * depth on ||sum_i |V_i|||, v = sup_i sup |v_i| and depth the
    `_overlap_depth` of the supports, cross-checked against the norm of the
    assembled diagonal operator (its largest entry).

    At any point at most depth terms are nonzero, each at most v in
    modulus.  depth <= n0 + 1; it is max(n0, 1) for disjoint supports (1)
    and for a chain of three or more intervals that each meet only their
    neighbours (2).
    """
    v = family.uniform_bound
    if not np.isfinite(v):
        raise ValueError("family is not uniformly bounded")
    bound = v * _overlap_depth(family.support_family().sets)

    diag = np.zeros(grid.size)
    for d in family.sample_on(grid):
        diag += np.abs(np.asarray(d))
    computed = float(diag.max())
    if computed > bound + 1e-8:
        raise ValueError(
            f"computed operator norm {computed:.10g} exceeds bound {bound:.10g}"
        )
    return bound


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


def find_resolvent_point(rb: RelativeBound, box: SpectrumBox, y_min: float = 1e-3) -> complex:
    """Smallest tested lambda = i*y (y > 0) with positive resolvent margin.

    Scans y_min * 2^k upward and takes 60 geometric bisection steps between
    the last failing and the first passing y; raises if no y up to 1e12
    certifies.
    """
    y_cap = 1e12
    y = y_min
    prev = None
    while y <= y_cap:
        if resolvent_margin(rb, box, 1j * y) > 0.0:
            if prev is None:
                return 1j * y
            lo, hi = prev, y
            for _ in range(60):
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

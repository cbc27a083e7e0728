"""Contour-integral machinery: resolvent solves, Riesz spectral projectors,
analytic eigenvalue tracking, directional Taylor coefficients and their
radius of convergence, and analytic-family verification.

Contours are circles discretized by the trapezoidal rule, which converges
exponentially for analytic integrands; one resolvent factorization per node
is shared across all derivative orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lattice import DiscreteOperator

__all__ = [
    "Contour",
    "RieszProjector",
    "Direction",
    "EigenPath",
    "TrackResult",
    "AnalyticError",
    "ShiftNearSpectrumError",
    "QuadratureError",
    "TrackingError",
    "ReconstructionError",
    "resolvent_apply",
    "riesz_projector",
    "track_eigenvalue",
    "cauchy_derivative",
    "taylor_along",
    "radius_of_convergence",
    "taylor_eigenpath",
    "verify_analytic_family",
    "gamma_membership",
]


class AnalyticError(RuntimeError):
    pass


class ShiftNearSpectrumError(AnalyticError):
    """Shift lambda within tolerance of the spectrum; solve rejected."""


class QuadratureError(AnalyticError):
    """Contour quadrature under-resolved or contour too close to spectrum."""


class TrackingError(AnalyticError):
    """Eigenvalue tracking left its validity region."""


class ReconstructionError(AnalyticError):
    """Taylor partial sums fail to reproduce the function on the test circle."""


@dataclass(frozen=True)
class Contour:
    """Positively oriented circle |lambda - center| = radius with q uniform
    trapezoidal nodes."""

    center: complex
    radius: float
    q: int = 64

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("contour radius must be positive")
        if self.q < 16:
            raise ValueError("need at least 16 quadrature nodes")

    def angles(self) -> np.ndarray:
        return 2 * np.pi * np.arange(self.q) / self.q

    def nodes(self) -> np.ndarray:
        return self.center + self.radius * np.exp(1j * self.angles())


@dataclass(frozen=True)
class RieszProjector:
    """Spectral projector from a contour integral of the resolvent."""

    P: np.ndarray
    contour: Contour
    trace: complex
    defect: float  # ||P^2 - P||_2

    @property
    def rank(self) -> int:
        return int(round(self.trace.real))

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return self.P @ psi


@dataclass(frozen=True)
class Direction:
    """Nonzero direction in the truncated coupling space."""

    t: np.ndarray
    p: float = np.inf

    def __post_init__(self):
        t = np.asarray(self.t, dtype=complex)
        object.__setattr__(self, "t", t)
        if not np.any(t != 0):
            raise ValueError("direction must be nonzero")

    def norm(self) -> float:
        a = np.abs(self.t)
        if np.isinf(self.p):
            return float(a.max())
        return float((a**self.p).sum() ** (1 / self.p))


@dataclass
class EigenPath:
    """Record of an eigenvalue's analytic continuation along a direction."""

    base: np.ndarray
    direction: Direction
    samples: list[tuple[complex, complex]]  # (zeta, E(base + zeta*t))
    coefficients: np.ndarray
    radius: float
    rank_one_maintained: bool = True
    contour_crossed: bool = False


@dataclass(frozen=True)
class TrackResult:
    E: complex
    psi: np.ndarray
    projector: RieszProjector


def _as_matrix(H) -> tuple[object, int]:
    if isinstance(H, DiscreteOperator):
        return H.matrix, H.dim
    if sp.issparse(H):
        return H, H.shape[0]
    H = np.asarray(H)
    return H, H.shape[0]


def resolvent_apply(H, lam: complex, B, residual_tol: float = 1e-10):
    """(H - lam)^-1 B via factorization, with a residual check.

    Each branch solves in the library whose BLAS also computes its residual
    product H @ X:

    * dense ndarray H: ``numpy.linalg.solve``.  The residual is a dense
      matrix product and norm in NumPy.  NumPy and SciPy each bundle their
      own OpenBLAS with its own thread pool; a SciPy solve followed by a
      NumPy product hands work from one pool to the other at every call,
      which can stall for milliseconds on 2 cores even for small H.  Keep
      the solve and its residual in one library.
    * sparse H with d <= 200: densified and solved with
      ``scipy.linalg.solve``, whose structure detection is fast on the
      banded lattice operators.  The residual is a ``scipy.sparse`` product,
      which uses no BLAS.
    * sparse H with d > 200: one sparse LU (``splu``) per shift.

    Raises ShiftNearSpectrumError if the shifted solve is exactly singular
    or the residual exceeds residual_tol * ||B||.
    """
    mat, d = _as_matrix(H)
    B = np.asarray(B, dtype=complex)
    import warnings

    # Singular shifts are detected by the residual check below; suppress the
    # intermediate divide/ill-conditioning warnings on that path.
    with np.errstate(divide="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", la.LinAlgWarning)
        try:
            if sp.issparse(mat) and d > 200:
                shifted = (mat - lam * sp.identity(d, format="csc")).tocsc()
                lu = spla.splu(shifted)
                X = lu.solve(B)
            elif sp.issparse(mat):
                X = la.solve(mat.toarray() - lam * np.eye(d), B)
            else:
                dense = np.asarray(mat, dtype=complex)
                X = np.linalg.solve(dense - lam * np.eye(d), B)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            raise ShiftNearSpectrumError(f"shift {lam} is singular: {exc}") from exc
        applied = (mat @ X) - lam * X
        resid = np.linalg.norm(applied - B)
    if not np.isfinite(resid) or resid > residual_tol * max(np.linalg.norm(B), 1e-300):
        raise ShiftNearSpectrumError(
            f"lambda = {lam} within tolerance of spectrum "
            f"(solve residual {resid:.3g})"
        )
    return X


def riesz_projector(
    H, contour: Contour, defect_tol: float = 1e-8, trace_tol: float = 1e-6
) -> RieszProjector:
    """P = -(2 pi i)^-1 * contour integral of (H - lambda)^-1.

    Trapezoidal quadrature on the circle:
        P = -(r/q) sum_j e^(i theta_j) (H - lambda_j)^-1.
    The idempotency defect and the integrality of the trace certify that
    the quadrature resolved the integrand and the contour stayed clear of
    the spectrum.
    """
    _, d = _as_matrix(H)
    eye = np.eye(d, dtype=complex)
    acc = np.zeros((d, d), dtype=complex)
    angles = contour.angles()
    for theta, lam in zip(angles, contour.nodes()):
        acc += np.exp(1j * theta) * resolvent_apply(H, lam, eye)
    P = -(contour.radius / contour.q) * acc
    defect = float(np.linalg.norm(P @ P - P, 2))
    trace = complex(np.trace(P))
    if defect > defect_tol:
        raise QuadratureError(
            f"projector defect {defect:.3g} exceeds {defect_tol:.3g}: "
            "eigenvalue too close to contour or quadrature under-resolved"
        )
    if abs(trace - round(trace.real)) > trace_tol:
        raise QuadratureError(
            f"projector trace {trace:.6g} is not near an integer"
        )
    return RieszProjector(P=P, contour=contour, trace=trace, defect=defect)


def track_eigenvalue(
    family,
    beta,
    contour: Contour,
    psi0: np.ndarray,
    residual_tol: float = 1e-8,
    defect_tol: float = 1e-8,
    functional_floor: float = 0.1,
    survival_floor: float = 1e-8,
    seed: int = 7,
) -> TrackResult:
    """Continue a simple isolated eigenvalue from the reference point to
    `beta` via the spectral projector of H(beta) on the given contour.

    Requires the projector trace to stay near 1 (non-degeneracy preserved);
    the eigenvector is psi(beta) = P(beta) psi0 and the eigenvalue comes
    from a fixed linear functional, re-drawn at random if its value on
    psi(beta) gets too close to zero.
    """
    H = family(beta)
    proj = riesz_projector(H, contour, defect_tol=defect_tol)
    if abs(proj.trace - 1.0) > 0.1:
        raise TrackingError(
            f"projector trace {proj.trace:.4g} != 1: degeneracy or eigenvalue "
            "crossed contour; shrink step or re-center"
        )
    psi = proj.apply(np.asarray(psi0, dtype=complex))
    npsi = np.linalg.norm(psi)
    if npsi < survival_floor * np.linalg.norm(psi0):
        raise TrackingError("P(beta) psi0 vanished: left the tracking neighborhood")

    mat, _ = _as_matrix(H)
    hpsi = mat @ psi
    phi = np.conj(np.asarray(psi0, dtype=complex))
    denom = phi @ psi
    if abs(denom) < functional_floor * np.linalg.norm(psi0) * npsi:
        rng = np.random.default_rng(seed)
        for _ in range(16):
            phi = rng.standard_normal(len(psi)) + 1j * rng.standard_normal(len(psi))
            denom = phi @ psi
            if abs(denom) >= functional_floor * np.linalg.norm(phi) * npsi:
                break
        else:
            raise TrackingError("could not find a functional bounded away from zero")
    E = (phi @ hpsi) / denom
    resid = np.linalg.norm(hpsi - E * psi)
    if resid > residual_tol * npsi:
        raise TrackingError(
            f"eigen-residual {resid:.3g} exceeds {residual_tol:.3g} * ||psi||"
        )
    return TrackResult(E=complex(E), psi=psi, projector=proj)


def _circle_samples(f, center: complex, r: float, q: int) -> tuple[np.ndarray, np.ndarray]:
    angles = 2 * np.pi * np.arange(q) / q
    samples = [np.asarray(f(center + r * np.exp(1j * a)), dtype=complex) for a in angles]
    return angles, np.stack(samples, axis=0)


def cauchy_derivative(f, center: complex, r: float, n: int, q: int = 64):
    """n-th derivative of f at `center` from the Cauchy integral formula,
    trapezoidal rule with q nodes on |zeta - center| = r.

    Works for scalar-, vector- and matrix-valued analytic f.
    """
    if q < 16:
        raise ValueError("need at least 16 quadrature nodes")
    angles, samples = _circle_samples(f, center, r, q)
    if not np.all(np.isfinite(samples)):
        raise AnalyticError("non-finite samples on the contour")
    phase = np.exp(-1j * n * angles)
    coeff = np.tensordot(phase, samples, axes=(0, 0)) * (math.factorial(n) / (q * r**n))
    return coeff if coeff.shape else complex(coeff)


def taylor_along(
    f,
    base,
    direction: Direction | np.ndarray,
    r: float,
    M: int,
    q: int = 128,
    recon_tol: float = 1e-8,
    check: bool = True,
):
    """Directional Taylor coefficients A_0..A_M of zeta -> f(base + zeta t).

    A_m = (1/m!) * m-th Cauchy derivative, all orders sharing one set of
    contour samples.  When `check` is set, partial sums are validated
    against direct evaluations on the test circle |zeta| = r/2.
    """
    t = direction.t if isinstance(direction, Direction) else np.asarray(direction)
    base = np.asarray(base)

    def g(zeta: complex):
        return f(base + zeta * t)

    angles, samples = _circle_samples(g, 0.0, r, q)
    if not np.all(np.isfinite(samples)):
        raise AnalyticError("non-finite samples on the contour")
    coeffs = []
    for m in range(M + 1):
        phase = np.exp(-1j * m * angles)
        coeffs.append(np.tensordot(phase, samples, axes=(0, 0)) / (q * r**m))
    A = np.stack(coeffs, axis=0)

    if check:
        scale = float(np.max(np.abs(samples))) or 1.0
        for zeta in 0.5 * r * np.exp(1j * 2 * np.pi * np.arange(8) / 8):
            direct = np.asarray(g(zeta), dtype=complex)
            series = sum(A[m] * zeta**m for m in range(M + 1))
            err = float(np.max(np.abs(direct - series)))
            if err > recon_tol * scale:
                raise ReconstructionError(
                    f"reconstruction error {err:.3g} at |zeta| = {abs(zeta):.3g}: "
                    "radius too large or singularity inside disk"
                )
    return A


def radius_of_convergence(coefficients, negligible: float = 1e-14) -> float:
    """Radius estimate from the coefficient tail.

    Baseline: finite-window Cauchy-Hadamard, 1/max_{m in [M/2, M]}
    |A_m|^(1/m).  The window maximum converges like 1 + O(log m / m), so
    when at least three non-negligible coefficients are available the
    estimate is refined by the ratio test with one Richardson step (the
    per-gap ratios behave like R + c/m for algebraic branch points).
    Coefficient magnitudes below `negligible` are excluded; if the whole
    tail window is negligible the series is entire to tolerance and +inf
    is returned.
    """
    mags = np.array([float(np.max(np.abs(np.asarray(c)))) for c in coefficients])
    M = len(mags) - 1
    if M < 8:
        raise ValueError("need at least 9 coefficients (M >= 8)")
    # Quadrature noise scales with the largest coefficient, so the
    # significance cut is relative as well as absolute.
    cut = max(negligible, 1e-8 * float(mags.max(initial=0.0)))
    window = range(M // 2, M + 1)
    roots = [mags[m] ** (1.0 / m) for m in window if mags[m] >= cut]
    if not roots:
        return math.inf
    base = 1.0 / max(roots)

    nz = [m for m in range(1, M + 1) if mags[m] >= cut]
    if len(nz) < 3:
        return base
    m1, m2, m3 = nz[-3:]
    r1 = (mags[m1] / mags[m2]) ** (1.0 / (m2 - m1))
    r2 = (mags[m2] / mags[m3]) ** (1.0 / (m3 - m2))
    mid1, mid2 = 0.5 * (m1 + m2), 0.5 * (m2 + m3)
    refined = (r2 * mid2 - r1 * mid1) / (mid2 - mid1)
    if refined <= 0 or not math.isfinite(refined):
        return base
    return refined


def taylor_eigenpath(
    family,
    base,
    direction: Direction,
    track_contour: Contour,
    r: float,
    M: int = 16,
    q: int = 128,
    residual_tol: float = 1e-8,
    defect_tol: float = 1e-8,
) -> EigenPath:
    """Taylor-expand the tracked eigenvalue zeta -> E(base + zeta t).

    Every contour sample re-runs the tracking pipeline, so rank-1 failures
    or contour crossings surface as flags instead of silent wrong series.
    """
    base = np.asarray(base, dtype=complex)
    samples: list[tuple[complex, complex]] = []
    flags = {"rank_one": True, "crossed": False}
    ref_psi = _reference_vector(family, base, track_contour)

    def g(beta_vec) -> complex:
        zeta = _project_zeta(beta_vec - base, direction.t)
        try:
            res = track_eigenvalue(family, beta_vec, track_contour, psi0=ref_psi,
                                   residual_tol=residual_tol,
                                   defect_tol=defect_tol)
        except TrackingError:
            flags["rank_one"] = False
            flags["crossed"] = True
            raise
        samples.append((zeta, complex(res.E)))
        return res.E

    A = taylor_along(g, base, direction, r=r, M=M, q=q,
                     recon_tol=residual_tol * 100, check=True)
    R = radius_of_convergence(A) if M >= 8 else math.nan
    return EigenPath(
        base=base,
        direction=direction,
        samples=samples,
        coefficients=np.asarray(A, dtype=complex),
        radius=R,
        rank_one_maintained=flags["rank_one"],
        contour_crossed=flags["crossed"],
    )


def _project_zeta(delta: np.ndarray, t: np.ndarray) -> complex:
    """Coordinate zeta of delta = zeta * t along the direction t."""
    j = int(np.argmax(np.abs(t)))
    return complex(delta[j] / t[j])


def _reference_vector(family, base, contour: Contour) -> np.ndarray:
    """Eigenvector of H(base) for the eigenvalue enclosed by the contour."""
    res_base = riesz_projector(family(base), contour)
    if res_base.rank != 1:
        raise TrackingError(
            f"contour encloses {res_base.rank} eigenvalues at the base point"
        )
    # Dominant column of the rank-1 projector.
    j = int(np.argmax(np.linalg.norm(res_base.P, axis=0)))
    psi = res_base.P[:, j]
    return psi / np.linalg.norm(psi)


@dataclass(frozen=True)
class CheckRecord:
    check: str
    location: str
    residual: float
    passed: bool


@dataclass
class AnalyticReport:
    """Result of sampling-based analytic-family verification.

    A pass means "consistent with analytic on all samples", never a proof.
    """

    records: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]


def _cauchy_riemann_residual(h, zeta: complex, step: float = 1e-5) -> float:
    """|d/dx h + i d/dy h| via central differences, normalized by the local
    derivative scale; nonzero for non-holomorphic maps (e.g. |.|)."""
    dx = (h(zeta + step) - h(zeta - step)) / (2 * step)
    dy = (h(zeta + 1j * step) - h(zeta - 1j * step)) / (2 * step)
    scale = max(abs(dx), abs(dy), 1e-12)
    return abs(dx + 1j * dy) / scale


def verify_analytic_family(
    family,
    base_points,
    directions,
    psis,
    r: float = 0.2,
    M: int = 8,
    q: int = 64,
    recon_tol: float = 1e-9,
    cr_tol: float = 1e-4,
    resolvent_shift: complex | None = None,
) -> AnalyticReport:
    """Sampling checks that beta -> H(beta) behaves like an analytic family.

    For each sampled base point, direction and vector:
      * constant-domain action: zeta -> H(beta + zeta t) psi passes the
        Taylor-reconstruction test;
      * resolvent: zeta -> (H(beta + zeta t) - lambda0)^-1 passes the same
        test at a certified shift lambda0;
      * line analyticity: scalar functionals of the action satisfy the
        Cauchy-Riemann equations to finite-difference accuracy, and those
        scalar traces pass reconstruction (weak-analyticity surrogate).
    """
    report = AnalyticReport()
    for bi, beta0 in enumerate(base_points):
        beta0 = np.asarray(beta0, dtype=complex)
        H0 = family(beta0)
        mat0, d = _as_matrix(H0)
        eye = np.eye(d, dtype=complex)
        if resolvent_shift is None:
            bound = H0.norm_bound() if isinstance(H0, DiscreteOperator) else float(
                np.linalg.norm(np.asarray(mat0), 2)
            )
            lam0 = 10j * max(bound, 1.0)
        else:
            lam0 = complex(resolvent_shift)

        for di, direction in enumerate(directions):
            t = direction.t if isinstance(direction, Direction) else np.asarray(direction)

            for pi_, psi in enumerate(psis):
                psi = np.asarray(psi, dtype=complex)
                loc = f"base={bi} dir={di} psi={pi_}"

                def action(beta_vec):
                    m, _ = _as_matrix(family(beta_vec))
                    return m @ psi

                resid, ok = _recon_residual(action, beta0, t, r, M, q, recon_tol)
                report.records.append(CheckRecord("type-A action", loc, resid, ok))

                k = min(3, d)
                for comp in range(k):
                    def h(zeta, comp=comp):
                        m, _ = _as_matrix(family(beta0 + zeta * t))
                        return complex((m @ psi)[comp])

                    cr = max(
                        _cauchy_riemann_residual(h, z)
                        for z in (0.05 * r, 0.3 * r * np.exp(0.7j), -0.4 * r * 1j)
                    )
                    report.records.append(
                        CheckRecord("G-analytic (Cauchy-Riemann)",
                                    f"{loc} comp={comp}", cr, cr <= cr_tol)
                    )

            def resolvent_map(beta_vec):
                return resolvent_apply(family(beta_vec), lam0, eye)

            resid, ok = _recon_residual(resolvent_map, beta0, t, r, M, q, recon_tol)
            report.records.append(
                CheckRecord("Kato resolvent", f"base={bi} dir={di}", resid, ok)
            )
    return report


def _recon_residual(f, base, t, r, M, q, tol) -> tuple[float, bool]:
    """Worst reconstruction residual of taylor_along, as (residual, pass)."""
    try:
        A = taylor_along(f, base, t, r=r, M=M, q=q, check=False)
    except AnalyticError:
        return math.inf, False
    worst = 0.0
    scale = 0.0
    for zeta in 0.5 * r * np.exp(1j * 2 * np.pi * np.arange(6) / 6):
        direct = np.asarray(f(np.asarray(base) + zeta * np.asarray(t)), dtype=complex)
        series = sum(A[m] * zeta**m for m in range(M + 1))
        worst = max(worst, float(np.max(np.abs(direct - series))))
        scale = max(scale, float(np.max(np.abs(direct))))
    resid = worst / max(scale, 1e-12)
    return resid, resid <= tol


def gamma_membership(family, beta, lam: complex, tol: float = 1e-10) -> tuple[bool, float]:
    """Whether (beta, lambda) lies in the open resolvent region, with margin.

    Margin is the smallest singular value of H(beta) - lambda; positive
    margin means perturbing (beta, lambda) by less than it keeps membership.
    """
    mat, d = _as_matrix(family(beta))
    dense = mat.toarray() if sp.issparse(mat) else np.asarray(mat, dtype=complex)
    smin = float(la.svdvals(dense - lam * np.eye(d))[-1])
    return smin > tol, smin

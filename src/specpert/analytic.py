"""Contour-integral machinery: resolvent solves, Riesz spectral projectors,
analytic eigenvalue tracking, directional Taylor coefficients and their
radius of convergence, and analytic-family verification.

Contours are circles discretized by the trapezoidal rule, which converges
exponentially for analytic integrands; one resolvent factorization per node
is shared across all derivative orders.

Three primitives carry the contour computations.  `_node_solves` makes
every contour factorization: one LAPACK band LU per node for sparse H
(`_band_lu`, the one band factorization, which also serves every
shift-invert step, `_inverse_step`), ``numpy.linalg.solve`` for a dense
ndarray, whose band would be the whole matrix; each solve's residual is
checked against H.  `_projector_action` forms every trapezoidal sum of
them: the full P and, for the block Taylor samples, P Y and (P^2 - P) Y.
`_series` forms Cauchy coefficients on a circle and their reconstruction
error from samples its caller takes at `_series_points` (`_sampled` for
`taylor_along` and `verify_analytic_family`, `taylor_eigenpath` its
own): all orders in one product of the Fourier matrix with the samples,
the test-point partial sums in one Vandermonde product, on points formed
conjugate-symmetric to the bit.

Track and sweep continue an eigenvalue by its Riesz projector.  A Hermitian
sparse H (a `DiscreteOperator` with ``hermitian=True``) takes the filter
path of `track_eigenvalue` and `_reference_vector`, which never forms P
and makes no contour solve.  For normal H the trapezoidal projector is a
scalar rational filter, P_q = f(H) with f(E) = 1/(1 - z^q),
z = (E - c)/r (Polizzi 2009; Tang & Polizzi 2014), so
trace(P_q) = sum_j f(E_j) and ||P_q^2 - P_q||_2 = max_j |z_j^q|/|1 - z_j^q|^2
follow from the eigenvalues E_j that `_spectrum` keeps on the operator,
which the CLI's contour placement reads too, with a first-order Weyl term
for their error delta (`_filter_certificate`), which also gives the one
enclosed eigenvalue E_k.  A Laplacian H0 carries its closed-form spectrum
from `lattice.build_laplacian`, and an H(beta) that adds no term to it
carries H0's; any other Hermitian H is reduced once, on first use, to its
band eigenvalues (``eigvals_banded``).  P = v v^* then has rank one, and
P b = v (v^* b) comes from one band LU at E_k + i delta and two
inverse-iteration steps (`_enclosed_action`).  Dense and non-Hermitian H keep the full d x d Riesz
projector of `riesz_projector`, certified by ||P^2 - P||_2 <= defect_tol
and an integral trace.  Either way `_certified_action` gives the
certificates, a rank-one check and one projector action P b: P psi0 for a
tracked point, P w for the reference vector (a multiple of the
eigenvector, as P = v u^* has rank one).  The track and sweep tasks report
|trace(P_q) - 1| of either.

`contour_kato_radius` certifies, once per Taylor path, a radius r0 such
that the contour encloses exactly one eigenvalue of H(base + zeta t) for
every |zeta| < r0 (Kato 1966, ch. II Sec. 3 and ch. VII Sec. 2).  Inside
it, for a complex symmetric family (every real one), each computed sample
of `taylor_eigenpath` is one shift-invert solve, gated by the Neumann
margin.  The samples stream through `_shift_invert_samples`, the one place
their chunks are sized (two block-diagonal band LUs and one stacked
inverse iteration per chunk), so the path holds one chunk of H(beta) and
at most three more.
Otherwise a sample is an action-only block contour pass (Sakurai &
Sugiura 2003; Beyn 2012, `_track_block`), P Y and (P^2 - P) Y from one
`_projector_action` pass; one that fails its defect test is re-tracked by
`track_eigenvalue`, the one case in which a sample can form the
d x d P.  For a real family, base point, direction and
contour centre, E(conj zeta) = conj E(zeta) (Schwarz reflection; Kato
1966, ch. II Sec. 1 and ch. VII Sec. 3), so `taylor_eigenpath` takes the
lower half of each circle as the conjugates of the upper half wherever
H(conj beta) is the exact conjugate matrix of H(beta).

`gamma_membership` bounds sigma_min(H - lambda) from below for every
sparse H, Hermitian or not, from one band LU (`_band_lu`) and one band
Cholesky of A^H A less a guessed shift (`_gram_lower_bound`), with no
spectrum and no d x d array; it falls back to `resolvent_gap`.
`kato_radius` certifies that zeta -> (H + zeta V - lambda)^-1 is
holomorphic on a disk in closed form, from Schur bounds alone
(`resolvent_gap`); `verify_analytic_family` samples the same map.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.linalg.lapack as lapack
import scipy.sparse as sp

from . import lattice
from .lattice import DiscreteOperator, LatticeError, _canonical, _weyl_delta, schur_norm

__all__ = [
    "Contour",
    "RieszProjector",
    "Direction",
    "EigenPath",
    "BlockStats",
    "TrackResult",
    "AnalyticError",
    "ShiftNearSpectrumError",
    "QuadratureError",
    "TrackingError",
    "ReconstructionError",
    "resolvent_apply",
    "riesz_projector",
    "track_eigenvalue",
    "taylor_along",
    "radius_of_convergence",
    "taylor_eigenpath",
    "verify_analytic_family",
    "gamma_membership",
    "resolvent_gap",
    "kato_radius",
    "contour_kato_radius",
]


# Default certificate tolerances: the eigen-residual ||H psi - E psi|| / ||psi||
# and the projector defect ||P^2 - P||_2 of a tracked eigenvalue.
RESIDUAL_TOL = 1e-8
DEFECT_TOL = 1e-8


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


@dataclass(frozen=True)
class Direction:
    """Nonzero direction in the truncated coupling space."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=complex)
        object.__setattr__(self, "t", t)
        if not np.any(t != 0):
            raise ValueError("direction must be nonzero")


@dataclass
class BlockStats:
    """Work and certificate margins of contour solves, full projectors and
    action-only samples, and of shift-invert Taylor samples."""

    factorizations: int = 0
    rhs_columns: int = 0
    full_projectors: int = 0  # d x d projectors built (`riesz_projector`)
    fallbacks: int = 0  # block samples re-tracked by `track_eigenvalue`
    mirrored: int = 0  # Taylor samples taken as the conjugate of an earlier one
    shift_invert: int = 0  # Taylor samples taken by `_shift_invert_samples`
    block_samples: int = 0  # Taylor samples taken by `_track_block`
    max_margin_ratio: float = 0.0  # worst accepted shift-invert residual / Neumann margin
    max_defect: float = 0.0  # worst max_j ||(P^2 - P) w_j||
    max_rank_ratio: float = 0.0  # worst sigma_2(P Y) / sigma_1(P Y)
    max_projector_defect: float = 0.0  # worst accepted ||P^2 - P||_2 (full or filter)
    max_residual: float = 0.0  # worst accepted eigen-residual of `_eigenvalue_of`


@dataclass
class EigenPath:
    """Record of an eigenvalue's analytic continuation along a direction."""

    base: np.ndarray
    direction: Direction
    samples: list[tuple[complex, complex]]  # (zeta, E(base + zeta*t))
    coefficients: np.ndarray
    radius: float
    stats: BlockStats = field(default_factory=BlockStats)
    certified_radius: float = 0.0  # r0 of `contour_kato_radius`


@dataclass(frozen=True)
class TrackResult:
    """Tracked eigenvalue E, its vector psi = P psi0 and P's certificates."""

    E: complex
    psi: np.ndarray
    residual: float  # ||H psi - E psi|| / ||psi||
    trace: complex
    trace_defect: float  # |trace(P) - 1|
    defect: float  # ||P^2 - P||_2


def _as_matrix(H) -> tuple[object, int]:
    if isinstance(H, DiscreteOperator):
        return H.matrix, H.dim
    if sp.issparse(H):
        return H, H.shape[0]
    H = np.asarray(H)
    return H, H.shape[0]


def _dense_guard(d: int, what: str):
    """Raise LatticeError, before any d x d array is built, when d exceeds
    `lattice.DENSE_MAX_DIM`."""
    if d > lattice.DENSE_MAX_DIM:
        raise LatticeError(f"{what} builds a d x d array, and dimension {d} exceeds "
                           f"the dense limit {lattice.DENSE_MAX_DIM}")


def resolvent_apply(H, lam: complex, B):
    """(H - lam)^-1 B: one `_node_solves` shift, residual checked.

    Raises ShiftNearSpectrumError if the shifted solve is exactly singular
    or the residual exceeds `_SOLVE_RESIDUAL_TOL` (1e-10) * ||B||.
    """
    mat, d = _as_matrix(H)
    B = np.asarray(B, dtype=complex)
    [(_, X)] = _node_solves(mat, d, np.array([complex(lam)]), B.reshape(d, -1),
                            BlockStats())
    return X[0, 0].reshape(B.shape)


def riesz_projector(
    H, contour: Contour, defect_tol: float = DEFECT_TOL,
    stats: BlockStats | None = None,
) -> RieszProjector:
    """P = -(2 pi i)^-1 * contour integral of (H - lambda)^-1.

    Trapezoidal quadrature on the circle:
        P = -(r/q) sum_j e^(i theta_j) (H - lambda_j)^-1.
    P is `_projector_action` on the identity, so the q solutions are never
    held at once.
    The idempotency defect and the integrality of the trace (to `_RANK_TOL`)
    certify that the quadrature resolved the integrand and the contour stayed
    clear of the spectrum.  `stats` counts the work and keeps the worst
    accepted defect.
    Raises LatticeError above `lattice.DENSE_MAX_DIM`.
    """
    stats = BlockStats() if stats is None else stats
    mat, d = _as_matrix(H)
    _dense_guard(d, "riesz_projector")
    P = _projector_action(mat, d, contour, np.eye(d, dtype=complex), stats)
    stats.full_projectors += 1
    # P^2 by columns: matrix-vector products gave the same bits at 1 and 2
    # OpenBLAS threads for every d tried, the matrix product not at d = 210.
    P2 = np.stack([P @ col for col in P.T], axis=1)
    defect = float(np.linalg.norm(P2 - P, 2))
    trace = complex(np.trace(P))
    if defect > defect_tol:
        raise QuadratureError(
            f"projector defect {defect:.3g} exceeds {defect_tol:.3g}: "
            "eigenvalue too close to contour or quadrature under-resolved"
        )
    if abs(trace - round(trace.real)) > _RANK_TOL:
        raise QuadratureError(
            f"projector trace {trace:.6g} is not near an integer"
        )
    stats.max_projector_defect = max(stats.max_projector_defect, defect)
    return RieszProjector(P=P, contour=contour, trace=trace, defect=defect)


def track_eigenvalue(
    family,
    beta,
    contour: Contour,
    psi0: np.ndarray,
    residual_tol: float = RESIDUAL_TOL,
    defect_tol: float = DEFECT_TOL,
    stats: BlockStats | None = None,
) -> TrackResult:
    """Continue a simple isolated eigenvalue from the reference point to
    `beta` via the spectral projector of H(beta) on the given contour.

    Requires the projector to keep rank 1 (non-degeneracy preserved); the
    eigenvector is psi(beta) = P(beta) psi0, from one `_certified_action`
    (for a Hermitian `DiscreteOperator` one shift-invert band LU at the
    enclosed band eigenvalue, no contour solve), and the eigenvalue and its
    residual come from `_eigenvalue_of`: a fixed functional, survival floor
    1e-8 ||psi0||, and the eigen-residual held to residual_tol.  `stats`
    counts the work and keeps the worst residual.
    """
    H = family(beta)
    stats = BlockStats() if stats is None else stats
    psi0 = np.asarray(psi0, dtype=complex)
    trace, trace_defect, defect, psi = _certified_action(H, contour, psi0, defect_tol, stats)
    E, residual = _eigenvalue_of(_as_matrix(H)[0], psi, psi0, residual_tol)
    stats.max_residual = max(stats.max_residual, residual)
    return TrackResult(E=E, psi=psi, residual=residual, trace=trace,
                       trace_defect=trace_defect, defect=defect)


def _certified_action(H, contour: Contour, b: np.ndarray, defect_tol: float,
                      stats: BlockStats) -> tuple[complex, float, float, np.ndarray]:
    """trace(P), |trace(P) - 1|, ||P^2 - P||_2 and P b for the rank-one Riesz
    projector of H on the contour.

    A Hermitian `DiscreteOperator` takes `_filter_certificate`, then P b by
    shift-invert at the enclosed band eigenvalue (`_enclosed_action`); any
    other H the full P of `riesz_projector`, then P @ b.  Both certificates
    hold the trace within `_RANK_TOL` of an integer, so TrackingError is
    raised, before any solve on b, when that integer is not 1.
    """
    if isinstance(H, DiscreteOperator) and H.hermitian:
        trace, trace_defect, defect, E_k = _filter_certificate(H, contour, defect_tol, stats)
        act = lambda: _enclosed_action(H, E_k, contour, b, stats)
    else:
        proj = riesz_projector(H, contour, defect_tol=defect_tol, stats=stats)
        trace, trace_defect, defect = proj.trace, abs(proj.trace - 1.0), proj.defect
        act = lambda: proj.P @ b
    rank = round(trace.real)
    if rank != 1:
        raise TrackingError(
            f"contour encloses {rank} eigenvalues (projector trace {trace:.4g}): "
            "degeneracy or eigenvalue crossed contour; shrink step or re-center"
        )
    return trace, trace_defect, defect, act()


def _band_eigenvalues(mat, d: int) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian sparse H from its upper band
    (``eigvals_banded``), which gives the same bits at any BLAS thread count.

    A band whose imaginary part is exactly zero (a real symmetric H) is
    reduced in real storage, about three times faster than in complex
    storage; a complex Hermitian band keeps the complex reduction.  Each
    call reduces the band anew; `_spectrum` keeps one reduction per
    operator.
    """
    return la.eigvals_banded(_upper_band(mat, d)[0])


def _spectrum(op: DiscreteOperator) -> tuple[np.ndarray, float]:
    """The ascending eigenvalues (read-only) of a Hermitian `op` and a
    delta such that each lies within delta of an exact one.

    An operator may carry them from its construction: the closed form of a
    Laplacian (`lattice.build_laplacian`, delta at least `_weyl_delta`), or
    H0's for an H(beta) that adds no term to H0 (`lattice.AffineFamily`).
    Any other is reduced on first use to its band eigenvalues
    (`_band_eigenvalues`) with delta = `_weyl_delta`, kept on it, so each
    operator is reduced at most once however many certificates read it
    (the CLI's `RunContext.hamiltonian` returns one operator for a repeated
    beta)."""
    if op._spectrum is None:
        E = _band_eigenvalues(op.matrix, op.dim)
        E.flags.writeable = False
        object.__setattr__(op, "_spectrum", (E, _weyl_delta(op)))
    return op._spectrum


def _filter_certificate(op: DiscreteOperator, contour: Contour, defect_tol: float = DEFECT_TOL,
                        stats: BlockStats | None = None) -> tuple[complex, float, float, float]:
    """trace(P_q), |trace(P_q) - 1|, a bound on ||P_q^2 - P_q||_2 and the
    eigenvalue E_k nearest the centre (the enclosed one when the trace
    certifies rank one) for a Hermitian `op`, from its eigenvalues E_j
    (`_spectrum`), with no solve.

    The trapezoidal projector of a normal H is P_q = f(H),
    f(E) = 1/(1 - z^q), z = (E - c)/r.  With u = z^q for |z| < 1 and
    u = z^-q otherwise (so nothing overflows), f = [|z| < 1] +- u/(1 - u)
    and |f^2 - f| = |u|/|1 - u|^2.  Counting the enclosed E_j apart from the
    small terms keeps |trace - 1| to its own relative accuracy.  Each E_j
    is within the delta of `_spectrum` of the exact one, which adds the
    first-order term delta |f'(E_j)| (1 + 2 |f(E_j)|) to the defect, with
    |f'| = q |z|^(q-1)/(r |1 - z^q|^2).  Raises QuadratureError as
    `riesz_projector` does; `stats` keeps the worst accepted defect.
    """
    E, delta = _spectrum(op)
    q, r = contour.q, contour.radius
    z = (E - contour.center) / r
    az = np.abs(z)
    inside = az < 1
    with np.errstate(all="ignore"):
        u = np.where(inside, z, 1 / z) ** q
        gap = np.abs(1 - u) ** 2
        small = np.where(inside, u, -u) / (1 - u)  # f(E_j) - [|z_j| < 1]
        slope = q * np.where(inside, az ** (q - 1), np.abs(u) / az) / (r * gap)
        bounds = np.abs(u) / gap + delta * slope * (1 + 2 * np.abs(inside + small))
    defect = float(bounds.max(initial=0.0))
    excess = complex(small.sum())
    enclosed = int(inside.sum())
    if not defect <= defect_tol:
        raise QuadratureError(
            f"projector defect {defect:.3g} exceeds {defect_tol:.3g}: "
            "eigenvalue too close to contour or quadrature under-resolved"
        )
    if not (cmath.isfinite(excess) and abs(excess - round(excess.real)) <= _RANK_TOL):
        raise QuadratureError(
            f"projector trace {enclosed + excess:.6g} is not near an integer"
        )
    if stats is not None:
        stats.max_projector_defect = max(stats.max_projector_defect, defect)
    return enclosed + excess, abs(enclosed - 1 + excess), defect, float(E[np.argmin(az)])


def _enclosed_action(op: DiscreteOperator, E_k: float, contour: Contour, b: np.ndarray,
                     stats: BlockStats) -> np.ndarray:
    """P b = v (v^* b) for the rank-one projector P = v v^* of a Hermitian
    `op` onto the eigenvector v of the one eigenvalue inside the contour,
    whose computed value is E_k, by shift-invert.

    One band LU of H - sigma at sigma = E_k + i delta, delta that of
    `_spectrum` (eps r for H = 0, whose delta is 0; never singular, as sigma
    is not real), and two `_inverse_step`s give a unit x.  The exact eigenvalue
    lies within sqrt(2) delta of sigma and every other outside the
    contour, so each step shrinks the rest of x against v by about
    delta / gap, and x (x^* b) is P b to rounding
    (Ipsen, SIAM Rev. 39, 1997; Parlett, The Symmetric Eigenvalue Problem,
    ch. 4).  The steps start from the seeded real Gaussian w of
    `_reference_vector`, not from b, so x does not depend on b.  From b, x
    would keep about (delta / gap)^2 / |v^* b| of b's other components, and
    for a vanishing v^* b, which the survival floor of `_eigenvalue_of` must
    reject, x^* b would not vanish; a b in an invariant subspace of a
    reducible H that misses v would give an x outside the contour.
    """
    d = op.dim
    ab, kl, ku = _band_storage(op.matrix, d)
    delta = max(_spectrum(op)[1], np.finfo(float).eps * contour.radius)
    sigma = complex(E_k, delta)
    lu, piv, singular = _band_lu(ab, kl, ku, d, np.array([sigma]), stats)
    if singular.any():
        raise ShiftNearSpectrumError(f"shift {sigma} is singular")
    w = np.random.default_rng(_BLOCK_SEED).standard_normal((1, d))
    x = _inverse_step(lu, piv, kl, ku, _inverse_step(lu, piv, kl, ku, w))[0]
    stats.rhs_columns += 2
    return x * np.vdot(x, b)


def _projector_action(mat, d: int, contour: Contour, B: np.ndarray,
                      stats: BlockStats, twice: bool = False):
    """P B = -(r/q) sum_j e^(i theta_j) (H - lambda_j)^-1 B for a (d, k)
    block B (`_node_solves`), added node by node as each chunk comes, so the
    chunk size cannot change a bit.

    With `twice`, (P B, (P^2 - P) B): for P = sum_j a_j R_j, R_j = (H - lambda_j)^-1,
    the resolvent identity R_j R_k = (R_j - R_k) / (lambda_j - lambda_k) gives
        P^2 = sum_j (a_j^2 R_j^2 + 2 a_j c_j R_j),  c_j = sum_{k != j} a_k / (lambda_j - lambda_k),
    so each node adds its share of (P^2 - P) B from its one factorization.
    c_j is summed over the computed nodes, for which the identity holds.
    """
    acc = np.zeros((d, B.shape[1]), dtype=complex)
    angles, lams = contour.angles(), contour.nodes()
    if twice:
        a = -(contour.radius / contour.q) * np.exp(1j * angles)
        gaps = lams[:, None] - lams[None, :]
        np.fill_diagonal(gaps, np.inf)
        once = 2 * a * (a[None, :] / gaps).sum(axis=1) - a
        defect = np.zeros_like(acc)
    for nodes, X in _node_solves(mat, d, lams, B, stats, twice):
        for theta, x in zip(angles[nodes], X[0]):
            acc += np.exp(1j * theta) * x
        if twice:
            for u, v, x, y in zip(once[nodes], a[nodes] ** 2, X[0], X[1]):
                defect += v * y + u * x
    PB = -(contour.radius / contour.q) * acc
    return (PB, defect) if twice else PB


def _eigenvalue_of(mat, psi, psi0, residual_tol) -> tuple[complex, float]:
    """Eigenvalue E of the tracked vector psi = P psi0 and its relative
    eigen-residual ||H psi - E psi|| / ||psi||.

    Raises TrackingError when ||psi|| < 1e-8 ||psi0|| (P psi0 vanished) or
    the residual exceeds residual_tol.  E = conj(psi0) H psi / conj(psi0) psi,
    unless |psi0^* psi| < 0.1 ||psi0|| ||psi||; then E = (H psi)_j / psi_j
    with j = argmax |psi_j|, the functional e_j, for which
    |psi_j| >= ||psi|| / sqrt(d) always holds.
    """
    npsi = np.linalg.norm(psi)
    if npsi < 1e-8 * np.linalg.norm(psi0):
        raise TrackingError("P(beta) psi0 vanished: left the tracking neighborhood")

    hpsi = mat @ psi
    phi = np.conj(np.asarray(psi0, dtype=complex))
    denom = phi @ psi
    if abs(denom) < 0.1 * np.linalg.norm(psi0) * npsi:
        j = int(np.argmax(np.abs(psi)))
        E = hpsi[j] / psi[j]
    else:
        E = (phi @ hpsi) / denom
    resid = np.linalg.norm(hpsi - E * psi)
    if resid > residual_tol * npsi:
        raise TrackingError(
            f"eigen-residual {resid:.3g} exceeds {residual_tol:.3g} * ||psi||"
        )
    return complex(E), float(resid / npsi)


# Every contour solve passes ||(H - lambda) X - B||_F <= this * ||B||_F.
_SOLVE_RESIDUAL_TOL = 1e-10
# Largest chunk of contour nodes solved at once, in complex entries of the
# band copies plus the right-hand sides; it bounds the memory of identity
# solves (one node per chunk at d = 210, band width 15).
_CHUNK_ENTRIES = 1 << 16
# Seed of the random block columns, and the sigma_2/sigma_1 bound of the
# rank test, which is also the trace-integrality bound of riesz_projector
# and the filter path.
_BLOCK_SEED = 7
_RANK_TOL = 1e-6


def _band_storage(mat, d: int) -> tuple[np.ndarray, int, int]:
    """H in LAPACK general band storage, with the kl extra rows ?gbtrf fills.

    Entry H[i, j] sits at row kl + ku + i - j of column j.  The band is read
    straight off canonical CSR (`_band_positions`).
    """
    mat = _canonical(mat)
    nonzero, band_rows, cols, kl, ku = _band_positions(mat, d)
    ab = np.zeros((2 * kl + ku + 1, d), dtype=complex)
    ab[band_rows, cols] = mat.data[nonzero]
    return ab, kl, ku


def _upper_band(mat, d: int) -> tuple[np.ndarray, int]:
    """The upper triangle of the Hermitian sparse `mat` in LAPACK upper band
    storage (H[i, j] at row ku + i - j of column j, Fortran order), and its
    width ku: in real storage when its imaginary part is exactly zero (a
    real symmetric band), else in complex storage."""
    mat = _canonical(mat)
    nonzero, band_rows, cols, kl, ku = _band_positions(mat, d)
    upper = band_rows <= kl + ku
    data = mat.data[nonzero][upper]
    if not data.imag.any():
        data = data.real
    ab = np.zeros((ku + 1, d), dtype=data.dtype, order="F")
    ab[band_rows[upper] - kl, cols[upper]] = data
    return ab, ku


def _band_positions(mat, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Where `_band_storage` puts the entries of the canonical d x d CSR
    `mat`: the mask of its nonzero stored entries, their rows in the band
    and their columns, and the band widths kl, ku; stored zeros do not
    widen the band."""
    rows = np.repeat(np.arange(d), np.diff(mat.indptr))
    nonzero = mat.data != 0
    cols = mat.indices[nonzero]
    offsets = rows[nonzero] - cols
    kl = int(offsets.max(initial=0))
    ku = int(-offsets.min(initial=0))
    return nonzero, kl + ku + offsets, cols, kl, ku


def _band_lu(ab: np.ndarray, kl: int, ku: int, d: int, shifts: np.ndarray,
             stats: BlockStats):
    """LU (``?gbtrf``) of one block-diagonal band matrix with a block of size
    d per shift: block k is the band of block k of `ab` less shifts[k].  It
    is complex unless `ab` and the shifts are real (`gamma_membership` of a
    real H at a real shift).

    `ab` holds bands in the rows of `_band_storage`, side by side: one band,
    shared by every shift (the contour nodes of `_node_solves`), or one per
    shift (a chunk of `_shift_invert_samples`).  The off-block entries are
    exact zeros, so pivoting never crosses a block and how the blocks are
    stacked cannot change a bit.  This is the one band factorization of the
    module; `stats` counts each shift as one.

    Returns the LU, its pivots and a mask of the exactly singular blocks
    (a zero pivot, ``?gbtrf`` info > 0).  A singular block is left as the
    identity, so a ``?gbtrs`` on the stack stays finite in every other
    block; the caller decides what a singular shift means.
    """
    n = len(shifts)
    band = np.empty((ab.shape[0], n * d), dtype=np.result_type(ab, shifts), order="F")
    # Fortran order: factored in place.  A shared band broadcasts.
    band.T.reshape(n, d, -1)[:] = ab.T.reshape(-1, d, ab.shape[0])
    band[kl + ku] -= np.repeat(shifts, d)
    factor = lapack.dgbtrf if band.dtype == float else lapack.zgbtrf
    lu, piv, info = factor(band, kl, ku, overwrite_ab=1)
    stats.factorizations += n
    singular = np.zeros(n, dtype=bool)
    if info > 0:
        singular = (lu[kl + ku].reshape(n, d) == 0).any(axis=1)
        cols = np.repeat(singular, d)
        lu[:, cols] = 0
        lu[kl + ku, cols] = 1
        piv[cols] = np.flatnonzero(cols)
    return lu, piv, singular


def _node_solves(mat, d: int, lams: np.ndarray, B: np.ndarray, stats: BlockStats,
                 twice: bool = False):
    """R_j B = (H - lambda_j)^-1 B for every node lambda_j, by chunks.

    Yields (nodes, X): a slice of node indices and X[0, i] = R_j B, plus
    X[1, i] = R_j^2 B with `twice`, for j = nodes.start + i.  Sparse H: a
    chunk's shifts are factored at once by `_band_lu`, so the chunk size
    cannot change a bit.  Dense ndarray H: one node per chunk, solved by
    ``numpy.linalg.solve`` (twice with `twice`), which stays in NumPy's
    OpenBLAS thread pool with the residual product.  Every solve passes
    ||(H - lambda_j) X - B||_F <= `_SOLVE_RESIDUAL_TOL` ||B||_F (the second
    against R_j B), with H applied as the matrix it came as, not its band
    copy, and the sums of squares taken over the float view, without BLAS.
    """
    B = np.ascontiguousarray(B, dtype=complex)
    k = B.shape[1]
    s = 2 if twice else 1
    banded = sp.issparse(mat)
    if banded:
        ab, kl, ku = _band_storage(mat, d)
        chunk = max(1, _CHUNK_ENTRIES // (ab.size + s * d * k))
    else:
        mat = np.asarray(mat, dtype=complex)
        chunk = 1
    b_norm = math.sqrt(np.einsum("ik,ik->", B.view(float), B.view(float)))
    for start in range(0, len(lams), chunk):
        shifts = lams[start:start + chunk]
        n = len(shifts)
        with np.errstate(all="ignore"):
            X = np.empty((s, n * d, k), dtype=complex)
            if banded:
                lu, piv, singular = _band_lu(ab, kl, ku, d, shifts, stats)
                if singular.any():
                    raise ShiftNearSpectrumError(f"shift {shifts[singular.argmax()]} is singular")
                X[0] = lapack.zgbtrs(lu, kl, ku, np.tile(B, (n, 1)), piv)[0]
                if twice:
                    X[1] = lapack.zgbtrs(lu, kl, ku, X[0], piv)[0]
                del lu, piv  # freed before the next chunk is factored
            else:
                shifted = mat - shifts[0] * np.eye(d)
                try:
                    X[0] = np.linalg.solve(shifted, B)
                    if twice:
                        X[1] = np.linalg.solve(shifted, X[0])
                except np.linalg.LinAlgError as exc:
                    raise ShiftNearSpectrumError(f"shift {shifts[0]} is singular") from exc
                stats.factorizations += 1
            stats.rhs_columns += s * n * k
            X = X.reshape(s, n, d, k)

            # Node-major columns (d, s, n, k): one product with H per chunk.
            Xc = np.ascontiguousarray(X.transpose(2, 0, 1, 3))
            err = (mat @ Xc.reshape(d, -1)).reshape(Xc.shape)
            err -= shifts[:, None] * Xc
            err[:, 0] -= B[:, None, :]
            scale = np.full((s, n), b_norm)
            if twice:
                err[:, 1] -= Xc[:, 0]
                scale[1] = np.sqrt(np.einsum("jik,jik->j", X[0].view(float),
                                             X[0].view(float)))
            resid = np.sqrt(np.einsum("ibjk,ibjk->bj", err.view(float), err.view(float)))
        bad = ~(resid <= _SOLVE_RESIDUAL_TOL * np.maximum(scale, 1e-300))
        if bad.any():
            j = int(np.nonzero(bad.any(axis=0))[0][0])
            raise ShiftNearSpectrumError(
                f"lambda = {shifts[j]} within tolerance of spectrum "
                f"(solve residual {resid[:, j].max():.3g})"
            )
        yield slice(start, start + n), X


def _track_block(
    H,
    contour: Contour,
    psi0: np.ndarray,
    residual_tol: float = RESIDUAL_TOL,
    defect_tol: float = DEFECT_TOL,
    stats: BlockStats | None = None,
) -> complex:
    """Eigenvalue of H enclosed by the contour, from P Y alone.

    Y = [psi0, w1, w2] with seeded complex Gaussian columns w1, w2 of unit
    variance per entry.  Certificates: max_j ||(P^2 - P) w_j|| <=
    defect_tol / 10 (QuadratureError), sigma_2(P Y) <= 1e-6 sigma_1(P Y)
    (TrackingError), then the survival, functional and eigen-residual
    checks of `_eigenvalue_of`, as in `track_eigenvalue`.
    """
    stats = BlockStats() if stats is None else stats
    mat, d = _as_matrix(H)
    psi0 = np.asarray(psi0, dtype=complex)
    rng = np.random.default_rng(_BLOCK_SEED)
    W = (rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))) / math.sqrt(2)
    PY, defect_Y = _projector_action(mat, d, contour, np.column_stack([psi0, W]), stats,
                                     twice=True)

    defect = float(np.linalg.norm(defect_Y[:, 1:], axis=0).max())
    stats.max_defect = max(stats.max_defect, defect)
    if not defect <= defect_tol / 10:
        raise QuadratureError(
            f"block projector defect {defect:.3g} exceeds {defect_tol / 10:.3g}: "
            "eigenvalue too close to contour or quadrature under-resolved"
        )
    sv = np.linalg.svd(PY, compute_uv=False)
    ratio = (sv[1] / sv[0] if sv[0] > 0 else math.inf) if len(sv) > 1 else 0.0
    stats.max_rank_ratio = max(stats.max_rank_ratio, ratio)
    if not ratio <= _RANK_TOL:
        raise TrackingError(
            f"sigma_2/sigma_1 of P Y is {ratio:.3g}: projector rank != 1, "
            "degeneracy or eigenvalue crossed contour; shrink step or re-center"
        )
    E, residual = _eigenvalue_of(mat, PY[:, 0], psi0, residual_tol)
    stats.max_residual = max(stats.max_residual, residual)
    return E


# Inverse-iteration steps at the Rayleigh-quotient shift, at most.
_SHIFT_INVERT_STEPS = 8


def _inverse_step(lu, piv, kl: int, ku: int, X: np.ndarray) -> np.ndarray:
    """One inverse-iteration step on a stack: (H_k - sigma_k)^-1 x_k for each
    row x_k of the (N, d) X, by one ``zgbtrs`` on the stacked band LU of
    `_band_lu`, each scaled to unit length (`_norms`).  Callers count the
    right-hand-side columns of the samples they step."""
    Y = lapack.zgbtrs(lu, kl, ku, X.ravel(), piv)[0].reshape(X.shape)
    Y /= _norms(Y)[:, None]
    return Y


def _norms(X: np.ndarray) -> np.ndarray:
    """||x|| of each row x of the complex X, in the bits of
    ``np.linalg.norm(x)``: the same strided dot products of its real and
    imaginary parts."""
    return np.sqrt(np.vecdot(X.real, X.real) + np.vecdot(X.imag, X.imag))


def _quotients(H, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E = x^T H_k x / x^T x and rho = ||H_k x - E x|| for each row x of the
    (N, d) X, H the block-diagonal CSR matrix of the H_k.

    One product with H; x^T y as a stack of 1 x d by d x 1 products, each
    the dot product of one sample's ``x @ y``, so every value has the bits
    of the sample alone."""
    R = (H @ X.ravel()).reshape(X.shape)
    E = np.matmul(X[:, None, :], R[:, :, None])[:, 0, 0] / np.matmul(
        X[:, None, :], X[:, :, None])[:, 0, 0]
    R -= E[:, None] * X
    return E, _norms(R)


def _block_diagonal(mats: list, d: int) -> sp.csr_matrix:
    """The canonical d x d CSR matrices `mats` as one canonical
    block-diagonal CSR matrix, each row's stored entries in their order."""
    n = len(mats)
    nnz = np.array([m.nnz for m in mats])
    data = np.concatenate([m.data for m in mats])
    indices = np.concatenate([m.indices for m in mats]) + np.repeat(d * np.arange(n), nnz)
    indptr = np.concatenate([[0]] + [m.indptr[1:] for m in mats])
    indptr[1:] += np.repeat(np.cumsum(nnz) - nnz, d)
    H = sp.csr_matrix((data, indices, indptr), shape=(n * d, n * d))
    H.has_canonical_format = True
    return H


def _sample_chunk(d: int, kl: int, ku: int) -> int:
    """Shift-invert samples in one chunk of `_shift_invert_samples` at band
    widths kl, ku: as many as keep, in complex entries, their stacked band
    and its LU copy, their entries and column indices in the block-diagonal
    matrix (at most kl + ku + 1 a row), and five iterates (x, y, H y, E x
    and the solve's copy of its right-hand side) within `_CHUNK_ENTRIES`."""
    return max(1, _CHUNK_ENTRIES // ((2 * (2 * kl + ku + 1) + 2 * (kl + ku + 1) + 5) * d))


def _shift_invert_samples(samples, x: np.ndarray, stats: BlockStats):
    """For each (tag, H, sigma) of the iterable `samples`, in order, yield
    (tag, (E, rho)): the eigenvalue E of the complex symmetric H near the
    shift sigma and its residual rho = ||H x - E x|| / ||x||, by
    shift-invert from x; (tag, None) for a sample whose shift is exactly
    singular.

    Each sample takes two inverse-iteration steps with one band LU of
    H - sigma (a dense ndarray goes in as CSR, whose band is the whole
    matrix), then one LU at the quotient E = x^T H x / x^T x, stationary for
    complex symmetric H, as the left eigenvector is the transposed right one
    (Arbenz & Hochstenbach 2004).  Steps at that shift keep the smallest rho
    and stop once a step no longer halves it, at the rounding floor, or
    after `_SHIFT_INVERT_STEPS` steps.

    The samples are read as they are needed and go a chunk at a time
    (`_shift_invert_chunk`): a run of samples with equal band widths, at
    most `_sample_chunk` of them.  This is the one place chunks are sized:
    the stream holds one chunk and the sample read after it.  A sample's
    values do not depend on the chunk it falls in, and `stats` counts what
    the samples taken one by one would: one factorization per shift, one
    right-hand-side column per step of a sample still stepping.  No
    solve-residual gate: the shifts lie near an eigenvalue by design, and
    the caller judges E by rho alone.
    """
    x = np.asarray(x, dtype=complex)
    d = len(x)
    chunk: list[tuple] = []  # (tag, mat, sigma, positions) of each sample
    positions = None
    for tag, H, sigma in samples:
        mat = _canonical(_as_matrix(H)[0])
        # The H(beta) of an `AffineFamily` share their index arrays: one
        # with the nonzero entries of the last shares its band positions.
        if not (positions is not None and mat.indptr is pattern[0]
                and mat.indices is pattern[1] and np.array_equal(mat.data != 0, positions[0])):
            positions, pattern = _band_positions(mat, d), (mat.indptr, mat.indices)
        widths = positions[3:]
        if chunk and (widths != chunk[-1][3][3:] or len(chunk) == _sample_chunk(d, *widths)):
            yield from _shift_invert_chunk(chunk, x, stats)
            chunk = []
        chunk.append((tag, mat, complex(sigma), positions))
    if chunk:
        yield from _shift_invert_chunk(chunk, x, stats)


def _shift_invert_chunk(chunk: list[tuple[object, sp.csr_matrix, complex, tuple]],
                        x0: np.ndarray, stats: BlockStats) -> list[tuple[object, object]]:
    """`_shift_invert_samples` of one chunk of (tag, mat, sigma, positions),
    all at once, as (tag, (E, rho) | None): mat is a sample's canonical CSR
    matrix and positions its `_band_positions`, all of the same band widths.

    The chunk's bands go side by side into one stacked band
    (`_band_storage`).  Each of the two `_band_lu` calls factors every
    sample of the chunk, each `_inverse_step` is one ``zgbtrs`` on the
    stack, and the quotients one product with the samples' block-diagonal
    CSR matrix (`_quotients`).  Pivoting never crosses a block, so each
    sample keeps the bits it has alone.  A sample whose first shift is
    exactly singular leaves the chunk before the second LU; one singular at
    the second stops there.
    """
    tags, mats, sigmas, positions = zip(*chunk)
    n, d = len(chunk), len(x0)
    kl, ku = positions[0][3:]
    ab = np.zeros((2 * kl + ku + 1, n * d), dtype=complex, order="F")
    for i, (mat, (nonzero, band_rows, cols, _, _)) in enumerate(zip(mats, positions)):
        ab[band_rows, cols + i * d] = mat.data[nonzero]
    out: list[tuple[complex, float] | None] = [None] * n
    H = _block_diagonal(mats, d)
    with np.errstate(all="ignore"):
        sigmas = np.array(sigmas)
        lu, piv, singular = _band_lu(ab, kl, ku, d, sigmas, stats)
        X = _inverse_step(lu, piv, kl, ku,
                          _inverse_step(lu, piv, kl, ku, np.tile(x0, (n, 1))))
        stats.rhs_columns += 2 * int(n - singular.sum())
        del lu, piv
        E, rho = _quotients(H, X)
        keep = ~singular
        if not keep.any():
            return list(zip(tags, out))
        if not keep.all():
            ab = ab[:, np.repeat(keep, d)]
            H = _block_diagonal([mat for mat, kept in zip(mats, keep) if kept], d)
            X, E, rho = X[keep], E[keep], rho[keep]
        lu, piv, singular = _band_lu(ab, kl, ku, d, E, stats)
        stepping = ~singular
        for _ in range(_SHIFT_INVERT_STEPS):
            if not stepping.any():
                break
            Y = _inverse_step(lu, piv, kl, ku, X)
            stats.rhs_columns += int(stepping.sum())
            E_y, rho_y = _quotients(H, Y)
            better = stepping & (rho_y < rho)
            stepping &= rho_y < 0.5 * rho
            X[better], E[better], rho[better] = Y[better], E_y[better], rho_y[better]
    for i, k in enumerate(np.flatnonzero(keep)):
        if not singular[i]:
            out[k] = (complex(E[i]), float(rho[i]))
    return list(zip(tags, out))


def _conjugate_circle(radius: float, n: int) -> np.ndarray:
    """n points radius e^(2 pi i j / n): formed for j <= n/2 and conjugated
    for the rest, so z[n - j] == conj(z[j]) to the bit."""
    z = radius * np.exp(1j * (2 * np.pi * np.arange(n // 2 + 1) / n))
    return np.concatenate([z, np.conj(z[1:(n + 1) // 2][::-1])])


def _pair_order(n: int) -> list[int]:
    """0, 1, n - 1, 2, n - 2, ...: the indices of `_conjugate_circle` a
    conjugate pair at a time, ending with n/2 for even n."""
    order = [0]
    for j in range(1, (n + 1) // 2):
        order += [j, n - j]
    return order + [n // 2] if n % 2 == 0 else order


def _series_points(r: float, q: int) -> np.ndarray:
    """The q nodes zeta_j = r e^(2 pi i j / q) of `_series`, then its 8 test
    points on |zeta| = r/2, each circle conjugate-symmetric to the bit
    (`_conjugate_circle`)."""
    return np.concatenate([_conjugate_circle(r, q), _conjugate_circle(0.5 * r, 8)])


def _series_order(q: int) -> list[int]:
    """The indices of `_series_points` a conjugate pair at a time: the nodes
    in `_pair_order` (0, 1, q - 1, 2, q - 2, ...), then the test points in
    theirs, so for real base and t a point's conjugate comes right after it
    (`taylor_eigenpath` reuses it)."""
    return _pair_order(q) + [q + k for k in _pair_order(8)]


def _sampled(f, base, t, r: float, q: int) -> np.ndarray:
    """g(zeta) = f(base + zeta t) at the `_series_points`, called in
    `_series_order` and stacked in point order.

    Filled in place, not stacked from a list: the d x d matrix samples of
    `verify_analytic_family` are q d^2 values, and a list would hold them
    twice."""
    points = _series_points(r, q)
    order = _series_order(q)
    first = np.asarray(f(base + points[order[0]] * t), dtype=complex)
    samples = np.empty((len(points),) + first.shape, dtype=complex)
    samples[order[0]] = first
    for j in order[1:]:
        samples[j] = f(base + points[j] * t)
    return samples


def _series(samples: np.ndarray, r: float, M: int) -> tuple[np.ndarray, float]:
    """Cauchy coefficients A_0..A_M of an analytic g on |zeta| <= r, and
    their reconstruction error, from its samples at the q + 8
    `_series_points`, in that order.

    The nodes zeta_j = r e^(i theta_j) give
    A_m = (1 / (q r^m)) sum_j e^(-i m theta_j) g(zeta_j), all orders in one
    product of the (M + 1) x q Fourier matrix with the samples.  The error
    is the largest |g(zeta) - sum_m A_m zeta^m| at the 8 test points on
    |zeta| = r/2, the partial sums in one Vandermonde product, relative to
    the largest node sample.  Works for scalar-, vector- and matrix-valued
    samples; the callers take them (`_sampled`, `taylor_eigenpath`).
    """
    q = len(samples) - 8
    nodes = samples[:q]
    if not np.all(np.isfinite(nodes)):
        raise AnalyticError("non-finite samples on the contour")
    scale = float(np.max(np.abs(nodes))) or 1.0
    orders = np.arange(M + 1)
    fourier = np.exp(-1j * orders[:, None] * (2 * np.pi * np.arange(q) / q))
    A = fourier @ nodes.reshape(q, -1)
    A /= (q * r**orders)[:, None]
    test = _series_points(r, q)[q:]
    residual = samples[q:].reshape(len(test), -1) - (test[:, None] ** orders) @ A
    error = float(np.max(np.abs(residual)))
    return A.reshape((M + 1,) + samples.shape[1:]), error / scale


def _coefficients(samples: np.ndarray, r: float, M: int, recon_tol: float) -> np.ndarray:
    """`_series` of the samples; raises ReconstructionError unless the
    partial sums reproduce them on the test circle |zeta| = r/2 to
    recon_tol relative to the largest sample."""
    A, err = _series(samples, r, M)
    if not err <= recon_tol:
        raise ReconstructionError(
            f"relative reconstruction error {err:.3g} on |zeta| = {0.5 * r:.3g}: "
            "radius too large or singularity inside disk"
        )
    return A


def taylor_along(
    f,
    base,
    direction: Direction | np.ndarray,
    r: float,
    M: int,
    q: int = 128,
    recon_tol: float = 1e-8,
):
    """Directional Taylor coefficients A_0..A_M of zeta -> f(base + zeta t).

    A_m = (1/m!) * m-th Cauchy derivative, all orders sharing one set of
    contour samples (`_sampled`, `_series`).  Raises ReconstructionError
    unless the partial sums reproduce f on the test circle |zeta| = r/2 to
    recon_tol relative to the largest sample.
    """
    t = direction.t if isinstance(direction, Direction) else np.asarray(direction)
    return _coefficients(_sampled(f, np.asarray(base), t, r, q), r, M, recon_tol)


def radius_of_convergence(coefficients) -> float:
    """Radius estimate from the coefficient tail.

    Baseline: finite-window Cauchy-Hadamard, 1/max_{m in [M/2, M]}
    |A_m|^(1/m).  The window maximum converges like 1 + O(log m / m), so
    when at least three non-negligible coefficients are available the
    estimate is refined by the ratio test with one Richardson step (the
    per-gap ratios behave like R + c/m for algebraic branch points).
    Coefficient magnitudes below 1e-14, or below 1e-8 of the largest, are
    excluded; if the whole tail window is negligible the series is entire
    to tolerance and +inf is returned.
    """
    mags = np.array([float(np.max(np.abs(np.asarray(c)))) for c in coefficients])
    M = len(mags) - 1
    if M < 8:
        raise ValueError("need at least 9 coefficients (M >= 8)")
    # Quadrature noise scales with the largest coefficient, so the
    # significance cut is relative as well as absolute.
    cut = max(1e-14, 1e-8 * float(mags.max(initial=0.0)))
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
    residual_tol: float = RESIDUAL_TOL,
    defect_tol: float = DEFECT_TOL,
) -> EigenPath:
    """Taylor-expand the tracked eigenvalue zeta -> E(base + zeta t).

    The reference vector psi0 comes from `_reference_vector` at the base
    point.  With V_t = family(base + t) - family(base), exact for an affine
    family, `contour_kato_radius` gives r0 (`path.certified_radius`): for
    |zeta| < r0 the contour encloses exactly one eigenvalue of
    H(base + zeta t).  r0 is not required to exceed r.

    Shift-invert samples.  When r < r0 and H(base) and V_t equal their
    transposes entry for entry (every real family does), each computed
    sample is a shift-invert sample (`_shift_invert_samples`) from the
    shift E0 + zeta a1, with
    E0 = psi0^T H(base) psi0 / psi0^T psi0 and a1 = psi0^T V_t psi0 / psi0^T psi0:
    at most two band LUs and no contour.  The computed samples stream, as
    they are built, through `_shift_invert_samples`, which alone sizes their
    chunks, each chunk two block-diagonal band LUs in all.  The path holds
    at most one chunk of H(beta) and three more: H(base), the sample read
    after the chunk and the previous chunk's last.  A sample's value does
    not depend on its chunk.  It is accepted iff its
    residual rho = ||H x - E x|| / ||x|| is at most residual_tol and below
    the Neumann margin (r0 - r) ||V_t||, less the rounding of rho, and
    |E - c| is below the contour radius.  On
    the contour sigma_min(H(base + zeta t) - lambda) >= (r0 - |zeta|) ||V_t||
    > rho, so the contour misses the rho-pseudospectrum of H, and the
    components of it inside the contour hold the one enclosed eigenvalue
    alone; E lies in one of them (Trefethen & Embree 2005).  A sample that
    misses the gate, or whose shift is exactly singular, is taken from the
    block path instead, and counted there.

    Block samples.  Otherwise every sample tracks the eigenvalue from P Y
    alone, Y = [psi0, w1, w2] (see `_track_block`): each node's LU, applied
    to Y and once more, adds its share of P Y and (P^2 - P) Y.  Rank-1
    failures (sigma_2(P Y) > 1e-6 sigma_1(P Y)) or contour crossings raise
    TrackingError instead of giving a silent wrong series.  The block defect
    test is max_j ||(P^2 - P) w_j|| <= defect_tol / 10: a random column sees
    about |v^* w| ~ 1 of a rank-one defect, and falls below a tenth of it
    with probability about 1%, so the factor keeps the block test at least
    as strict as ||P^2 - P||_2 <= defect_tol.  A sample that fails it is
    re-tracked by `track_eigenvalue` on the H(beta) it built, so the
    exact test decides and never rejects a projector for an unlucky draw;
    unless H(beta) is a Hermitian `DiscreteOperator` (never at a non-real
    zeta), that builds the d x d P and raises LatticeError above
    `lattice.DENSE_MAX_DIM`.

    Schwarz reflection halves the samples of a real family.  If the
    contour centre c is real, the exact node set of the circle is closed
    under conjugation.  spec(conj H) = conj spec(H), so conj H has as many
    eigenvalues inside it as H, at the same distances, and the trapezoid
    rule gives P_q(conj H) = conj P_q(H).  The block defect and
    sigma_2/sigma_1 of H with columns w_j are those of conj H with columns
    conj w_j (the complex Gaussian law is conjugation invariant), and the
    exact ||P^2 - P||_2 of a re-tracked sample carries over too, so
    (conj E, conj psi) is a sample of conj H, tracked from conj psi0,
    certified as (E, psi) was.  A shift-invert sample of conj H has the
    same residual and margin, so its certificate carries over as well.
    The points of `_series_points` are conjugate-symmetric to the bit, and
    the path walks them in `_series_order`, each point's conjugate right
    after it, so for a real base and t the partner of a point is the last
    computed sample, whose beta and H(beta) the path keeps.  A point at the
    conjugate of that beta takes conj E of it, once E is computed, if c is
    real and its H(beta) equals the conjugate of the partner's entry for
    entry (`_is_conjugate`); otherwise the sample is computed.  The exact
    conjugate matrix also carries the partner's eigen-residual over bit for
    bit (IEEE complex products and sums commute with conjugation), so it is
    not re-checked.  A non-real family, base, direction or centre never
    matches.

    `path.stats` counts the factorizations, right-hand-side columns and
    full projectors of the reference vector and all samples, the
    shift-invert, block, re-tracked and mirrored samples, and keeps the
    worst rho / margin, block defect and sigma_2/sigma_1.
    """
    base = np.asarray(base, dtype=complex)
    t = direction.t
    stats = BlockStats()
    ref_psi = _reference_vector(family, base, track_contour, stats)
    real_centre = complex(track_contour.center).imag == 0

    H_base = family(base)
    mat0 = _canonical(_as_matrix(H_base)[0])
    V = _canonical(_canonical(_as_matrix(family(base + t))[0]) - mat0)
    r0 = contour_kato_radius(H_base, V, track_contour)
    shift_invert = r < r0 and _is_symmetric(mat0) and _is_symmetric(V)
    if shift_invert:
        # The Neumann margin (r0 - r) ||V_t||, less the rounding of a computed
        # rho: (d + 8) eps (||H|| + |E|) for a unit x, ||H|| <= ||H(base)|| + r ||V_t||
        # and |E| < |c| + radius.
        norm_v = schur_norm(V)
        margin = (r0 - r) * norm_v - (mat0.shape[0] + 8) * np.finfo(float).eps * (
            schur_norm(mat0) + r * norm_v + abs(track_contour.center) + track_contour.radius)
        norm2 = ref_psi @ ref_psi
        E0 = ref_psi @ (mat0 @ ref_psi) / norm2
        a1 = ref_psi @ (V @ ref_psi) / norm2

    points = _series_points(r, q)
    # Each sample's zeta is read back off its beta, along the largest |t_i|.
    axis = int(np.argmax(np.abs(t)))
    zetas = np.empty(len(points), dtype=complex)
    values = np.empty(len(points), dtype=complex)
    mirrors: list[tuple[int, int]] = []  # (point, the computed point it mirrors)

    def computed():
        """(point, H(beta)) of each sample to compute, in `_series_order`;
        records the zeta of every point and the mirrored ones."""
        # (beta, point, H(beta)) of the last computed sample: its conjugate
        # point comes next (see `_series_order`).
        last = None
        for j in _series_order(q):
            beta = base + points[j] * t
            zetas[j] = (beta[axis] - base[axis]) / t[axis]
            H = family(beta)
            if (real_centre and last is not None and np.array_equal(beta, np.conj(last[0]))
                    and _is_conjugate(_as_matrix(H)[0], _as_matrix(last[2])[0])):
                stats.mirrored += 1
                mirrors.append((j, last[1]))
                continue
            last = (beta, j, H)
            yield j, H

    def block_sample(H) -> complex:
        stats.block_samples += 1
        try:
            return _track_block(H, track_contour, ref_psi, residual_tol, defect_tol, stats)
        except QuadratureError:
            # Block defect above defect_tol / 10: the exact test decides.
            stats.fallbacks += 1
            return track_eigenvalue(lambda _: H, None, track_contour, ref_psi,
                                    residual_tol, defect_tol, stats).E

    if shift_invert:
        shifted = (((j, H), H, E0 + zetas[j] * a1) for j, H in computed())
        for (j, H), result in _shift_invert_samples(shifted, ref_psi, stats):
            E, rho = result if result is not None else (math.nan, math.nan)
            if (rho <= residual_tol and rho < margin
                    and abs(E - track_contour.center) < track_contour.radius):
                stats.shift_invert += 1
                stats.max_margin_ratio = max(stats.max_margin_ratio, rho / margin)
                values[j] = E
            else:
                values[j] = block_sample(H)
    else:
        for j, H in computed():
            values[j] = block_sample(H)
    for j, k in mirrors:
        values[j] = values[k].conjugate()

    A = _coefficients(values, r, M, residual_tol * 100)
    R = radius_of_convergence(A) if M >= 8 else math.nan
    return EigenPath(
        base=base,
        direction=direction,
        samples=[(complex(zetas[j]), complex(values[j])) for j in _series_order(q)],
        coefficients=np.asarray(A, dtype=complex),
        radius=R,
        stats=stats,
        certified_radius=r0,
    )


def _is_symmetric(mat) -> bool:
    """Whether the square sparse `mat` equals its transpose entry for entry
    (NaN equals nothing): `lattice.is_hermitian`'s lookup, unconjugated."""
    data, partner = lattice._with_transpose(mat)
    return bool((data[:-1] == data[partner]).all())


def _is_conjugate(mat, other) -> bool:
    """Whether `mat` equals conj(`other`) entry for entry (sparse or dense).

    CSR matrices with the same stored pattern, as an `AffineFamily` gives,
    compare their data arrays alone.
    """
    if sp.issparse(mat) != sp.issparse(other) or mat.shape != other.shape:
        return False
    if sp.issparse(mat):
        if (mat.format == other.format == "csr"
                and (mat.indptr is other.indptr or np.array_equal(mat.indptr, other.indptr))
                and (mat.indices is other.indices
                     or np.array_equal(mat.indices, other.indices))):
            return np.array_equal(np.conj(other.data), mat.data)
        return (other.conj() != mat).nnz == 0
    return np.array_equal(np.conj(other), mat)


def _reference_vector(family, base, contour: Contour,
                      stats: BlockStats | None = None) -> np.ndarray:
    """Eigenvector of H(base) for the eigenvalue enclosed by the contour:
    P w / ||P w|| for a seeded real Gaussian w, from one `_certified_action`
    (one shift-invert band LU for a Hermitian `DiscreteOperator`).

    For a rank-one P = v u^*, P w = v (u^* w) is a multiple of v.  A real w
    keeps P w real, up to rounding, for a real symmetric H.
    """
    H = family(base)
    stats = BlockStats() if stats is None else stats
    w = np.random.default_rng(_BLOCK_SEED).standard_normal(_as_matrix(H)[1])
    psi = _certified_action(H, contour, w, DEFECT_TOL, stats)[3]
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


def _cauchy_riemann_residual(h, zeta: complex) -> float:
    """|d/dx h + i d/dy h| via central differences of step 1e-5, normalized
    by the local derivative scale; nonzero for non-holomorphic maps (e.g. |.|)."""
    step = 1e-5
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
    recon_tol: float = 1e-9,
) -> AnalyticReport:
    """Sampling checks that beta -> H(beta) behaves like an analytic family.

    For each sampled base point, direction and vector:
      * constant-domain action: zeta -> H(beta + zeta t) psi passes the
        Taylor-reconstruction test;
      * resolvent: zeta -> (H(beta + zeta t) - lambda0)^-1 passes the same
        test at lambda0 = 10i max(||H(beta)||, 1), ||.|| the Schur bound;
      * line analyticity: scalar functionals of the action satisfy the
        Cauchy-Riemann equations to finite-difference accuracy, residual at
        most 1e-4 (weak-analyticity surrogate).

    Each reconstruction takes q = 64 samples on |zeta| = r.

    Each resolvent sample is a d x d matrix, so it raises LatticeError above
    `lattice.DENSE_MAX_DIM`.  `kato_radius` certifies the resolvent record
    in closed form.
    """
    report = AnalyticReport()
    for bi, beta0 in enumerate(base_points):
        beta0 = np.asarray(beta0, dtype=complex)
        H0 = family(beta0)
        mat0, d = _as_matrix(H0)
        _dense_guard(d, "verify_analytic_family")
        eye = np.eye(d, dtype=complex)
        lam0 = 10j * max(schur_norm(_canonical(mat0)), 1.0)

        for di, direction in enumerate(directions):
            t = direction.t if isinstance(direction, Direction) else np.asarray(direction)

            for pi_, psi in enumerate(psis):
                psi = np.asarray(psi, dtype=complex)
                loc = f"base={bi} dir={di} psi={pi_}"

                def action(beta_vec):
                    m, _ = _as_matrix(family(beta_vec))
                    return m @ psi

                resid, ok = _recon_residual(action, beta0, t, r, M, recon_tol)
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
                                    f"{loc} comp={comp}", cr, cr <= 1e-4)
                    )

            def resolvent_map(beta_vec):
                return resolvent_apply(family(beta_vec), lam0, eye)

            resid, ok = _recon_residual(resolvent_map, beta0, t, r, M, recon_tol)
            report.records.append(
                CheckRecord("Kato resolvent", f"base={bi} dir={di}", resid, ok)
            )
    return report


def _recon_residual(f, base, t, r, M, tol) -> tuple[float, bool]:
    """Reconstruction error of `_series` on q = 64 samples as (residual,
    pass); a sample or test point that hits the spectrum fails the check."""
    try:
        resid = _series(_sampled(f, base, t, r, 64), r, M)[1]
    except AnalyticError:
        return math.inf, False
    return resid, resid <= tol


# The block inverse iteration that guesses sigma_min(A) for
# `gamma_membership`: its columns, its steps, and the share eta of the
# guessed sigma_min(A)^2 the certificate gives up so that a guess a little
# above it still certifies.
_SMIN_COLUMNS = 4
_SMIN_STEPS = 6
_SMIN_ETA = 1e-8


def gamma_membership(family, beta, lam: complex, tol: float = 1e-10) -> tuple[bool, float]:
    """Whether (beta, lambda) lies in the open resolvent region, with margin.

    The margin is a lower bound on sigma_min(H(beta) - lambda); positive
    margin means perturbing (beta, lambda) by less than it keeps membership.
    Every H, Hermitian or not, sparse or a library ndarray (taken as CSR),
    gets one certificate, which forms no spectrum, no SVD and no d x d
    array.  It bounds lambda_min(A^H A) from below for A = H - lambda, or,
    for a Hermitian H, A = H - Re lambda, as then
    (H - lambda)^H (H - lambda) = A^2 + (Im lambda)^2 exactly:

    1. Guess.  One band LU of A (`_band_lu`) and `_SMIN_STEPS` steps of
       block inverse iteration X <- A^-1 A^-H X on `_SMIN_COLUMNS` seeded
       Gaussian columns (the block lets near-ties converge), then
       Rayleigh-Ritz: s^2 is the least eigenvalue of (A Q)^H (A Q) for the
       orthonormal Q of X.
    2. Certify.  B = fl(A^H A), of band p <= kl + ku, in real storage when
       its imaginary part is exactly zero (a real H at a real shift, so
       every real symmetric H).  With t = s^2 (1 - `_SMIN_ETA`) - 2c, a
       Cholesky (``?pbtrf``) of M = fl(B - t) that succeeds proves
       lambda_min(A^H A) >= t - c, and the margin is sqrt(t - c), or
       sqrt((Im lambda)^2 + t - c) for a Hermitian H, rounded down by
       1 - 2 eps.
    3. Otherwise (a singular LU, t <= c, or a failed Cholesky) the margin
       is `resolvent_gap`, valid for every H, or 0 where that is negative.

    Proof of 2, with eps the machine epsilon (twice the unit roundoff) and
    S = sqrt(max column sum * max row sum of |A|) >= || |A| ||_2, the Schur
    bound (as `lattice.schur_norm`).  (i) Rounding the shift
    into the diagonal of A and every complex inner product of
    n <= kl + ku + 1 terms (sqrt(2) gamma_(n+2), Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, Sec. 3.6) give
    |B - A^H A| <= (n + 4) eps |A|^T |A| entrywise, so
    ||B - A^H A||_2 <= (n + 4) eps S^2.  (ii) If the Cholesky runs to
    completion, R^H R = M + dM with |dM| <= g |R^H| |R|, where
    g = sqrt(2) gamma_(p+3) < 0.75 (p + 4) eps covers real and complex
    inner products of at most p + 1 terms in any order, blocked or not
    (Higham 2002, Thm 10.3; Rump, BIT 46 (2006)).  Every pivot was then
    positive, so t < B_jj, M_jj <= (1 + eps) B_jj and
    ||r_j||^2 <= M_jj / (1 - g); hence
    |dM_ij| <= g ||r_i|| ||r_j|| <= (p + 4) eps b for |i - j| <= p and 0
    otherwise, b = max_j B_jj, and ||dM||_2 <= (p + 4)(2p + 1) eps b.
    (iii) Rounding B_jj - t moves M by at most eps b.  As R^H R >= 0, Weyl
    gives lambda_min(A^H A) >= t - c
    with c = eps ((n + 4) S^2 + ((p + 4)(2p + 1) + 1) b), rounded up by
    1 + (d + 8) eps as `resolvent_gap` rounds its sums.  c is fixed a
    priori by the band widths, S and b, never read off the factor, whose
    bits may depend on the BLAS thread count.

    A certified margin is thus below sigma_min by about
    (eta sigma_min(A)^2 + 3c) / (2 sigma_min): 5e-9 at lambda = 0.001i on
    the certify benchmark lattice (d = 576, p = 48) and 4e-8 on bumps_1d
    (d = 160, p = 2), but a relative 1.5e-4 on a 100 x 100 Laplacian
    (p = 200), as c grows like p^2 eps ||A||^2.  The Ritz value converges like
    (sigma_1 / sigma_5)^24 in the singular values of A, so a non-Hermitian
    H whose five smallest singular values at lambda lie within a few
    percent of each other (lambda far from its spectrum) fails the
    Cholesky and gets the gap.
    """
    H = family(beta)
    mat, d = _as_matrix(H)
    mat = _canonical(mat)
    lam = complex(lam)
    hermitian = H.hermitian if isinstance(H, DiscreteOperator) else lattice.is_hermitian(mat)
    shift, floor = (lam.real, lam.imag ** 2) if hermitian else (lam, 0.0)
    low = _gram_lower_bound(mat, d, shift)
    if low is None:
        smin = max(float(resolvent_gap(mat, lam)), 0.0)
    else:
        smin = math.sqrt(floor + low) * (1 - 2 * float(np.finfo(float).eps))
    return smin > tol, smin


def _gram_lower_bound(mat, d: int, shift: complex) -> float | None:
    """Step 2 of `gamma_membership` for A = mat - shift, `mat` canonical
    CSR: t - c <= lambda_min(A^H A) when the Cholesky certifies it, else
    None."""
    A = _canonical(mat - shift * sp.identity(d, format="csr"))
    guess = _ritz_guess(mat, d, shift, A)
    if guess is None:
        return None
    upper, p = _upper_band(A.conj().T @ A, d)
    eps = np.finfo(float).eps
    b = float(upper[p].real.max())
    # S^2, the Schur bound of A squared, from its column and row sums.
    a = np.abs(A.data)
    S2 = np.bincount(A.indices, a, d).max() * np.bincount(lattice._rows(A), a, d).max()
    kl, ku = _band_positions(A, d)[3:]
    c = eps * ((kl + ku + 5) * S2 + ((p + 4) * (2 * p + 1) + 1) * b) * (1 + (d + 8) * eps)
    t = guess * (1 - _SMIN_ETA) - 2 * c
    if not t - c > 0:
        return None
    upper[p] -= t
    factor = lapack.dpbtrf if upper.dtype == float else lapack.zpbtrf
    if factor(upper, lower=0, overwrite_ab=1)[1] != 0:
        return None
    return float(t - c)


def _ritz_guess(mat, d: int, shift: complex, A) -> float | None:
    """Step 1 of `gamma_membership`: the least Ritz value of A^H A, A =
    mat - shift, after `_SMIN_STEPS` block inverse-iteration steps on one
    band LU (real for a real `mat` at a real shift); None when the LU is
    singular or the iteration overflows."""
    ab, kl, ku = _band_storage(mat, d)
    if not ab.imag.any():
        ab = ab.real
    lu, piv, singular = _band_lu(ab, kl, ku, d, np.array([shift]), BlockStats())
    if singular[0]:
        return None
    gbtrs, geqrf, orgqr = ((lapack.dgbtrs, lapack.dgeqrf, lapack.dorgqr) if lu.dtype == float
                           else (lapack.zgbtrs, lapack.zgeqrf, lapack.zungqr))
    X = np.random.default_rng(_BLOCK_SEED).standard_normal((d, min(_SMIN_COLUMNS, d)))
    with np.errstate(all="ignore"):
        for _ in range(_SMIN_STEPS):
            Y = gbtrs(lu, kl, ku, X, piv, trans=2)[0]
            X = orgqr(*geqrf(gbtrs(lu, kl, ku, Y, piv)[0])[:2])[0]  # Q of the QR
        AX = A @ X
    if not np.isfinite(AX).all():
        return None
    return la.eigvalsh(np.einsum("ik,il->kl", AX.conj(), AX))[0]


def resolvent_gap(H, lam: complex) -> float:
    """A lower bound on sigma_min(H - lam) from the numerical range, with no
    solve and no d x d array.

    For a unit x, ||(H - lam) x|| >= |x^* H x - lam|, so sigma_min(H - lam)
    >= dist(lam, W(H)), W(H) the numerical range.  Im W(H) = W(S) with
    S = (H - H^*)/(2i), which lies in [-||S||, ||S||]; hence
    sigma_min(H - lam) >= |Im lam| - ||S||.  ||S|| is the Schur bound
    (`lattice.schur_norm`) of the skew part, which is exactly zero
    for a Hermitian H, so the bound is then |Im lam|.  It holds for every H
    and any lam, and is rounded down: the Schur sums of at most d terms
    each, the entrywise operations, the subtraction and a later division
    (`kato_radius`) all round by less than the relative slack (d + 8) eps.
    """
    mat, d = _as_matrix(H)
    slack = (d + 8) * np.finfo(float).eps
    skew = schur_norm(_canonical((mat - mat.conj().T) / 2))
    return (abs(complex(lam).imag) - skew * (1 + slack)) * (1 - slack)


def kato_radius(H, V: DiscreteOperator, lam: complex) -> float:
    """Radius rho such that zeta -> (H + zeta V - lam)^-1 is holomorphic on
    |zeta| < rho, in closed form.

    H + zeta V - lam = (H - lam)(1 + zeta (H - lam)^-1 V) is invertible, and
    its inverse a convergent Neumann series in zeta, while
    |zeta| ||V|| < sigma_min(H - lam) (Kato 1966, ch. VII Sec. 1-2; Reed &
    Simon IV Sec. XII.2).  So rho = `resolvent_gap`(H, lam) / ||V||, with
    ||V|| the Schur bound rounded up as ||S|| is there; rho is 0 when the
    gap bound is not positive and infinite for V = 0.
    """
    gap = max(resolvent_gap(H, lam), 0.0)
    v = V.norm_bound() * (1 + (V.dim + 8) * np.finfo(float).eps)
    return gap / v if v > 0 else math.inf


def contour_kato_radius(H, V, contour: Contour) -> float:
    """Radius r0 such that the contour encloses exactly one eigenvalue of
    H + zeta V, counted with algebraic multiplicity, for every |zeta| < r0;
    0 when that is not certified.

    With the Hermitian part H_h = (H + H^*)/2 and S = (H - H^*)/2, on the
    circle sigma_min(H_h - lambda) >= g = min_j ||E_j - c| - rho| - delta,
    E_j the eigenvalues of H_h (`_spectrum`), each within its delta of an
    exact one.  So sigma_min(H_h + s S + zeta V - lambda) > 0 on the circle
    for every s in [0, 1] and |zeta| < r0 = (g - ||S||) / ||V||, and the
    count enclosed stays that of H_h, the number of E_j inside (Kato 1966,
    ch. II Sec. 3 and ch. VII Sec. 2); r0 = 0 unless it is one.  A
    Hermitian H has S = 0.  The norms are Schur bounds
    (`lattice.schur_norm`).

    Rounding is charged toward 0 with the slack s = (d + 8) eps: the entries
    of a sampled H(base + zeta t), and of V when it is the difference
    H(base + t) - H(base), differ from the exact affine path by a few ulps of
    |H| + |V| times 1 + |zeta|, which takes s (||H|| + ||V||) from g and adds
    it to ||V||; the subtracted terms are rounded up by 1 + s, the distances
    to the circle lose s (|c| + rho), and g and ||V|| are rounded by 1 -+ s.
    """
    mat = _canonical(_as_matrix(H)[0])
    d = mat.shape[0]
    slack = (d + 8) * np.finfo(float).eps
    if isinstance(H, DiscreteOperator) and H.hermitian:
        herm, skew = H, 0.0
    else:
        herm = DiscreteOperator((mat + mat.conj().T) / 2, hermitian=True)
        skew = schur_norm(_canonical((mat - mat.conj().T) / 2))
    c, rho = complex(contour.center), contour.radius
    E, delta = _spectrum(herm)
    dist = np.abs(E - c) - rho
    if np.count_nonzero(dist < 0) != 1:
        return 0.0
    v = schur_norm(_canonical(_as_matrix(V)[0]))
    noise = slack * (schur_norm(mat) + v)
    lost = (delta + skew + noise + slack * (abs(c) + rho)) * (1 + slack)
    gap = (float(np.abs(dist).min()) - lost) * (1 - slack)
    v = (v + noise) * (1 + slack)
    return float(max(gap, 0.0) / v) if v > 0 else math.inf

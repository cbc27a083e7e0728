"""Contour machinery: projectors, tracking, Taylor coefficients, radius."""

import cmath
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from specpert import analytic, cli
from specpert.analytic import (
    BlockStats,
    Contour,
    Direction,
    QuadratureError,
    ShiftNearSpectrumError,
    TrackingError,
    _reference_vector,
    _series,
    _track_block,
    contour_kato_radius,
    gamma_membership,
    kato_radius,
    radius_of_convergence,
    resolvent_gap,
    resolvent_apply,
    riesz_projector,
    taylor_along,
    taylor_eigenpath,
    track_eigenvalue,
    verify_analytic_family,
)
from specpert import lattice
from specpert.geometry import Box, SupportSet, interval_set
from specpert.lattice import (AffineFamily, CouplingSeq, DiscreteOperator, Grid,
                              LatticeError, assemble_hamiltonian, build_laplacian)
from specpert.potentials import GaussianBump, PotentialFamily, PotentialTerm


def two_level(beta):
    """Closed-form family [[0, b], [b, 1]]; lower eigenvalue
    (1 - sqrt(1 + 4 b^2))/2 with branch points at b = +-i/2."""
    b = complex(np.asarray(beta).ravel()[0])
    return np.array([[0.0, b], [b, 1.0]], dtype=complex)


def two_level_energy(b):
    return (1.0 - np.sqrt(1.0 + 4.0 * complex(b) ** 2)) / 2.0


def _without_shift_invert(monkeypatch):
    """Send every computed Taylor sample to the block contour path, as a
    shift that is exactly singular does."""
    def singular(mats, sigmas, x, stats):
        return [None for _ in sigmas]

    monkeypatch.setattr(analytic, "_shift_invert_samples", singular)


def _padded_to_210(h):
    """h plus a tridiagonal block with spectrum in [10, 14]: sparse, d = 210."""
    rest = sp.diags([-1.0, 12.0, -1.0], [-1, 0, 1], shape=(208, 208))
    return sp.csr_matrix(sp.block_diag([sp.csr_matrix(h), rest]))


def _lattice_2d(beta, points=(15, 14)):
    """H(beta) of one Gaussian bump on a 2D lattice; d = 210 by default."""
    grid = Grid(extent=((0.0, 7.0), (0.0, 6.5)), points=points)
    term = PotentialTerm(profile=GaussianBump((3.5, 3.2), 0.6, 1.0),
                         support=SupportSet((Box((2.0, 1.7), (5.0, 4.7)),)))
    return assemble_hamiltonian(build_laplacian(grid), PotentialFamily([term]),
                                CouplingSeq((beta,)))


def _lowest_contour(dense, q=64):
    vals = np.linalg.eigvals(dense)
    e0 = vals[np.argmin(vals.real)]
    gap = np.sort(np.abs(vals - e0))[1]
    return Contour(complex(e0), 0.5 * gap, q=q)


def _quadrature_defect(H, contour) -> float:
    """||P^2 - P||_2 of the trapezoidal projector of the dense H, computed as
    `riesz_projector` computes it but with no trace test, so an
    under-resolved contour gives its defect and does not raise."""
    d = len(H)
    P = analytic._projector_action(H, d, contour, np.eye(d, dtype=complex), BlockStats())
    P2 = np.stack([P @ col for col in P.T], axis=1)
    return float(np.linalg.norm(P2 - P, 2))


class TestResolventApply:
    def test_diagonal(self):
        H = np.diag([1.0, 2.0])
        X = resolvent_apply(H, 0.0, np.eye(2))
        np.testing.assert_allclose(X, np.diag([1.0, 0.5]), atol=1e-14)

    def test_random_sparse_hermitian(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((50, 50))
        H = sp.csr_matrix((A + A.T) / 2)
        B = rng.standard_normal(50)
        X = resolvent_apply(H, 3j, B)
        np.testing.assert_allclose(H @ X - 3j * X, B, atol=1e-9)

    def test_shift_at_eigenvalue_rejected(self):
        H = np.diag([1.0, 2.0])
        with pytest.raises(ShiftNearSpectrumError):
            resolvent_apply(H, 1.0, np.eye(2))


class TestRieszProjector:
    def test_two_level_diagonal(self):
        proj = riesz_projector(np.diag([0.0, 10.0]), Contour(0.0, 1.0, q=64))
        np.testing.assert_allclose(proj.P, np.diag([1.0, 0.0]), atol=1e-10)
        assert proj.rank == 1

    def test_empty_contour(self):
        proj = riesz_projector(np.diag([5.0, 10.0]), Contour(0.0, 1.0, q=64))
        assert abs(proj.trace) < 1e-10
        np.testing.assert_allclose(proj.P, 0.0, atol=1e-10)

    def test_rank_two(self):
        proj = riesz_projector(np.diag([0.0, 0.5, 10.0]), Contour(0.25, 1.0, q=64))
        assert proj.rank == 2
        assert abs(proj.trace - 2.0) < 1e-8

    def test_dense_spectral_decomposition_oracle(self):
        rng = np.random.default_rng(1)
        d = 30
        A = rng.standard_normal((d, d))
        H = (A + A.T) / 2
        vals, vecs = np.linalg.eigh(H)
        center = complex(vals[0])
        radius = 0.5 * (vals[1] - vals[0])
        proj = riesz_projector(H, Contour(center, radius, q=96))
        oracle = np.outer(vecs[:, 0], vecs[:, 0].conj())
        np.testing.assert_allclose(proj.P, oracle, atol=1e-8)

    def test_commutes_with_operator(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((20, 20))
        H = (A + A.T) / 2
        vals = np.linalg.eigvalsh(H)
        proj = riesz_projector(H, Contour(complex(vals[0]),
                                          0.5 * (vals[1] - vals[0]), q=96))
        comm = np.linalg.norm(proj.P @ H - H @ proj.P, 2)
        assert comm <= 1e-8 * np.linalg.norm(H, 2)

    @pytest.mark.parametrize("as_input", [np.asarray, sp.csr_matrix, _padded_to_210],
                             ids=["dense", "sparse", "sparse-d210"])
    def test_node_on_spectrum_rejected(self, as_input):
        # The node at angle 0 is exactly 1.0, an eigenvalue.
        H = as_input(np.diag([1.0, 10.0]))
        with pytest.raises(ShiftNearSpectrumError):
            riesz_projector(H, Contour(0.0, 1.0, q=64))

    def test_refuses_dimension_above_dense_limit(self, monkeypatch):
        # P is d x d: above the dense limit no node is solved.
        monkeypatch.setattr(lattice, "DENSE_MAX_DIM", 2)
        monkeypatch.setattr(analytic, "_projector_action",
                            lambda *a: pytest.fail("solved above the dense limit"))
        with pytest.raises(LatticeError, match="dimension 3 exceeds the dense limit 2"):
            riesz_projector(sp.csr_matrix(np.diag([0.0, 0.5, 10.0])), Contour(0.0, 1.0))

    def test_doubling_q_reduces_defect(self):
        H = np.diag([0.0, 1.4, 10.0])
        contour = lambda q: Contour(0.0, 1.0, q=q)
        # q = 16 is under-resolved here (eigenvalue at 1.4 close to the
        # contour), so the defect is measurable and must shrink with q.
        defects = [_quadrature_defect(H, contour(q)) for q in (16, 32, 64)]
        floor = 1e-13
        assert defects[1] <= max(defects[0], floor)
        assert defects[2] <= max(defects[1], floor)


class TestDenseSparseAgreement:
    """`_node_solves` solves a dense ndarray by NumPy's LAPACK, a sparse
    operator by band LU at every d; both must give the same resolvent,
    projector and block mode of `_projector_action`.  The 15 x 14 lattice
    (d = 210, band width 15) is where sparse input used to take a sparse LU."""

    @pytest.mark.parametrize("beta, lattice", [
        (0.3, "1d"), (0.3 + 0.2j, "1d"), (0.3, "2d"), (0.3 + 0.2j, "2d")],
        ids=["hermitian", "complex-symmetric", "hermitian-2d-d210",
             "complex-symmetric-2d-d210"])
    def test_branches_agree(self, beta, lattice):
        if lattice == "2d":
            H = _lattice_2d(beta)
        else:
            grid = Grid(extent=((0.0, 6.0),), points=(120,))
            term = PotentialTerm(profile=GaussianBump((3.0,), 0.5, 1.0),
                                 support=interval_set(1.0, 5.0))
            H = assemble_hamiltonian(build_laplacian(grid), PotentialFamily([term]),
                                     CouplingSeq((beta,)))
        sparse = sp.csr_matrix(H.matrix)
        dense = sparse.toarray()
        d = dense.shape[0]
        contour = _lowest_contour(dense)

        X_dense = resolvent_apply(dense, contour.nodes()[0], np.eye(d))
        X_sparse = resolvent_apply(sparse, contour.nodes()[0], np.eye(d))
        assert (np.linalg.norm(X_dense - X_sparse)
                <= 1e-12 * np.linalg.norm(X_sparse))

        P_dense = riesz_projector(dense, contour).P
        P_sparse = riesz_projector(sparse, contour).P
        assert (np.linalg.norm(P_dense - P_sparse)
                <= 1e-12 * np.linalg.norm(P_sparse))

        rng = np.random.default_rng(8)
        Y = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
        PY_dense, defect_dense = analytic._projector_action(dense, d, contour, Y, BlockStats(),
                                                            twice=True)
        PY_sparse, defect_sparse = analytic._projector_action(sparse, d, contour, Y,
                                                              BlockStats(), twice=True)
        scale = np.linalg.norm(PY_sparse)
        assert np.linalg.norm(PY_dense - PY_sparse) <= 1e-12 * scale
        assert np.linalg.norm(defect_dense - defect_sparse) <= 1e-12 * scale

    def test_dense_input_factors_once_per_node(self, monkeypatch):
        # Dense input takes one numpy.linalg.solve factorization per node
        # inside _node_solves and never the band LU.
        band_calls = []
        factor = analytic.lapack.zgbtrf

        def counted(*args, **kwargs):
            band_calls.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(analytic.lapack, "zgbtrf", counted)
        rng = np.random.default_rng(9)
        A = rng.standard_normal((40, 40))
        H = (A + A.T) / 2
        contour = _lowest_contour(H, q=32)
        stats = BlockStats()
        riesz_projector(H, contour, stats=stats)
        assert (stats.factorizations, stats.rhs_columns) == (contour.q, contour.q * 40)
        stats = BlockStats()
        analytic._projector_action(H, 40, contour, rng.standard_normal((40, 3)), stats,
                                   twice=True)
        assert (stats.factorizations, stats.rhs_columns) == (contour.q, 2 * contour.q * 3)
        assert band_calls == []

    @pytest.mark.parametrize("as_input", [np.asarray, sp.csr_matrix], ids=["dense", "sparse"])
    def test_block_mode_is_the_projector_product(self, as_input):
        # A non-Hermitian H with the eigenvalue 1.3 just outside the unit
        # circle, which q = 16 under-resolves: (P^2 - P) Y is about a tenth of
        # P Y, so the merged sum is compared with the product of the full P.
        rng = np.random.default_rng(12)
        S = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
        H = S @ np.diag([0.1, 1.3, 2.5, -2.0, 3.0 + 1.0j, 4.0]) @ np.linalg.inv(S)
        contour = Contour(0.0, 1.0, q=16)
        P = analytic._projector_action(H, 6, contour, np.eye(6, dtype=complex), BlockStats())
        Y = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        PY, defect = analytic._projector_action(as_input(H), 6, contour, Y, BlockStats(),
                                                twice=True)
        expected = (P @ P - P) @ Y
        assert np.linalg.norm(expected) >= 1e-3 * np.linalg.norm(P @ Y)
        assert np.linalg.norm(defect - expected) <= 1e-12 * np.linalg.norm(expected)
        assert np.linalg.norm(PY - P @ Y) <= 1e-12 * np.linalg.norm(P @ Y)


class TestChunkInvariance:
    """Block-diagonal pivoting never crosses a node, so how the nodes are
    split into band factorizations cannot change a bit."""

    def test_one_node_per_chunk_equals_one_chunk(self, monkeypatch):
        H = _lattice_2d(0.4 + 0.1j, points=(9, 7))
        contour = _lowest_contour(H.to_dense(), q=32)
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((H.dim, 3)) + 1j * rng.standard_normal((H.dim, 3))
        factor = analytic.lapack.zgbtrf
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(analytic.lapack, "zgbtrf", counted)
        results, chunks = [], []
        for cap in (1, 1 << 40):
            monkeypatch.setattr(analytic, "_CHUNK_ENTRIES", cap)
            calls.clear()
            P = riesz_projector(H, contour).P
            PY, defect = analytic._projector_action(H.matrix, H.dim, contour, Y, BlockStats(),
                                                    twice=True)
            results.append((P, PY, defect))
            chunks.append(len(calls))
        assert chunks == [2 * contour.q, 2]
        for one, many in zip(*results):
            assert np.array_equal(one, many)


class TestTracking:
    def test_identity_case(self):
        contour = Contour(0.0, 0.5, q=64)
        psi0 = _reference_vector(two_level, np.array([0.0]), contour)
        res = track_eigenvalue(two_level, np.array([0.0]), contour, psi0)
        assert res.E == pytest.approx(0.0, abs=1e-12)
        overlap = abs(np.vdot(psi0, res.psi)) / np.linalg.norm(res.psi)
        assert overlap == pytest.approx(1.0, rel=1e-10)

    def test_two_level_closed_form(self):
        contour = Contour(0.0, 0.5, q=128)
        psi0 = _reference_vector(two_level, np.array([0.0]), contour)
        for b in np.linspace(0.0, 0.3, 7):
            res = track_eigenvalue(two_level, np.array([b]), contour, psi0,
                                   residual_tol=1e-10)
            assert res.E == pytest.approx(two_level_energy(b), abs=1e-10)

    def test_trace_formula_consistency(self):
        contour = Contour(0.0, 0.5, q=128)
        psi0 = _reference_vector(two_level, np.array([0.0]), contour)
        b = np.array([0.25])
        res = track_eigenvalue(two_level, b, contour, psi0)
        H = two_level(b)
        P = riesz_projector(H, contour).P
        trace_formula = np.trace(P @ H @ P) / np.trace(P)
        assert res.E == pytest.approx(complex(trace_formula), abs=1e-10)

    def test_lattice_bump_sweep_vs_dense(self):
        grid = Grid(extent=((0.0, 6.0),), points=(64,))
        h0 = build_laplacian(grid)
        term = PotentialTerm(profile=GaussianBump((3.0,), 0.5, 1.0),
                             support=interval_set(1.0, 5.0))
        fam = PotentialFamily([term])

        def family(beta):
            return assemble_hamiltonian(h0, fam, CouplingSeq(tuple(np.real(beta))))

        vals0 = np.linalg.eigvalsh(h0.to_dense())
        contour = Contour(complex(vals0[0]), 0.5 * (vals0[1] - vals0[0]), q=64)
        psi0 = _reference_vector(family, np.array([0.0]), contour)
        for b in np.linspace(0.0, 0.1, 6):
            res = track_eigenvalue(family, np.array([b]), contour, psi0)
            dense = np.linalg.eigvalsh(family(np.array([b])).to_dense())
            assert res.E.real == pytest.approx(dense[0], abs=1e-8)
            assert abs(res.E.imag) < 1e-10

    def test_degenerate_contour_rejected(self):
        contour = Contour(0.5, 1.0, q=64)  # encloses both eigenvalues
        with pytest.raises(TrackingError):
            _reference_vector(two_level, np.array([0.0]), contour)

    def test_reference_vector_is_normalized_projector_action(self):
        # A dense ndarray takes the full-P path: one projector, and psi0 is
        # P w / ||P w|| for the seeded real Gaussian w.
        H = np.diag([0.0, 0.4, 2.0]) + 0.05 * np.ones((3, 3))
        contour = Contour(complex(np.linalg.eigvalsh(H)[0]), 0.15, q=64)
        stats = BlockStats()
        psi0 = _reference_vector(lambda b: H, None, contour, stats=stats)
        w = np.random.default_rng(analytic._BLOCK_SEED).standard_normal(3)
        Pw = riesz_projector(H, contour).P @ w
        assert np.linalg.norm(psi0 - Pw / np.linalg.norm(Pw)) <= 1e-12
        assert stats.full_projectors == 1


class TestEigenvalueOf:
    """`_eigenvalue_of`: the survival floor, the functional and the
    eigen-residual check of a tracked vector psi = P psi0."""

    def test_vanished_vector_raises(self):
        H = np.diag([0.0, 1.0])
        psi0 = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(TrackingError, match="vanished"):
            analytic._eigenvalue_of(H, 0.99e-8 * psi0, psi0, 1e-8)
        assert analytic._eigenvalue_of(H, 1.01e-8 * psi0, psi0, 1e-8) == (0.0, 0.0)

    @pytest.mark.parametrize("d", [40, 160, 576, 2000])
    def test_functional_exists_at_any_dimension(self, d):
        # psi = 0.05 e_0 is an exact eigenvector of diag(0, ..., d - 1), and
        # psi0 overlaps it by 5%, below the 0.1 floor of conj(psi0): E comes
        # from the largest entry of psi, at every d.
        H = sp.diags(np.arange(d, dtype=float)).tocsr()
        psi = np.zeros(d, dtype=complex)
        psi[0] = 0.05
        psi0 = np.zeros(d, dtype=complex)
        psi0[[0, 1]] = 0.05, math.sqrt(1 - 0.05**2)
        assert analytic._eigenvalue_of(H, psi, psi0, 1e-8) == (0.0, 0.0)

    def test_residual_still_decides(self):
        # The same functional on a vector that is no eigenvector.
        d = 576
        H = sp.diags(np.arange(d, dtype=float)).tocsr()
        psi = np.zeros(d, dtype=complex)
        psi[[0, 1]] = 0.05, 0.01
        psi0 = np.zeros(d, dtype=complex)
        psi0[[0, 2]] = 0.05, math.sqrt(1 - 0.05**2)
        with pytest.raises(TrackingError, match="eigen-residual"):
            analytic._eigenvalue_of(H, psi, psi0, 1e-8)


def _bumps_1d():
    """H(beta) of the shipped bumps_1d scenario: 160 nodes on [0, 12], three
    Gaussian bumps, beta = (0.06, 0.04, 0.03)."""
    grid = Grid(extent=((0.0, 12.0),), points=(160,))
    family = PotentialFamily([
        PotentialTerm(profile=GaussianBump((c,), 0.4, 1.0),
                      support=interval_set(c - 1.3, c + 1.3))
        for c in (3.0, 6.0, 9.0)])
    return AffineFamily.from_potentials(build_laplacian(grid), family)(
        np.array([0.06, 0.04, 0.03]))


def _random_banded(d=90, width=4, seed=11):
    """Random complex Hermitian band matrix (half band width `width`)."""
    rng = np.random.default_rng(seed)
    offsets = range(-width, width + 1)
    diags = [rng.standard_normal(d - abs(k)) + 1j * rng.standard_normal(d - abs(k))
             for k in offsets]
    A = sp.diags(diags, list(offsets), format="csr")
    return DiscreteOperator(A + A.getH(), hermitian=True)


_HERMITIAN_OPERATORS = {
    "bumps_1d": _bumps_1d,
    "padded_to_210": lambda: DiscreteOperator(_padded_to_210(two_level([0.3])),
                                              hermitian=True),
    "random_banded": _random_banded,
}


def _up_to_scale(a, b) -> float:
    """||a/||a|| - phase * b/||b|||| for the best unit phase."""
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    overlap = np.vdot(b, a)
    return float(np.linalg.norm(a - b * overlap / abs(overlap)))


def _closed_form(op, contour):
    """trace(P_q) = sum_j 1/(1 - z_j^q) and ||P_q^2 - P_q||_2 =
    max_j |z_j^q|/|1 - z_j^q|^2 from dense eigvalsh."""
    z = (np.linalg.eigvalsh(op.to_dense()) - contour.center) / contour.radius
    zq = z ** contour.q  # below 1e300 for every operator here
    defect = np.abs(zq) / np.abs(1 - zq) / np.abs(1 - zq)
    return complex(np.sum(1 / (1 - zq))), float(np.max(defect))


class TestHermitianFilter:
    """Hermitian `DiscreteOperator` input: trace and defect of P_q = f(H)
    from the band eigenvalues, P psi0 from one shift-invert LU at the
    enclosed band eigenvalue, no d x d P.  The same matrix as a bare sparse
    matrix takes `riesz_projector`."""

    @pytest.mark.parametrize("shape", ["centred", "wide"])
    @pytest.mark.parametrize("name", list(_HERMITIAN_OPERATORS))
    def test_matches_full_projector_and_closed_form(self, name, shape, monkeypatch):
        op = _HERMITIAN_OPERATORS[name]()
        vals, vecs = np.linalg.eigh(op.to_dense())
        gap = vals[1] - vals[0]
        # "wide": an off-centre circle reaching 0.7 of the gap, whose defect
        # (about 1e-10) is far above rounding, so the comparison has teeth.
        contour = (Contour(complex(vals[0]), 0.5 * gap, q=64) if shape == "centred"
                   else Contour(complex(vals[0] + 0.1 * gap), 0.6 * gap, q=64))
        full_stats, filter_stats = BlockStats(), BlockStats()
        psi_full = _reference_vector(lambda b: op.matrix, None, contour, stats=full_stats)
        full = track_eigenvalue(lambda b: op.matrix, None, contour, psi_full,
                                stats=full_stats)

        def no_full_projector(*args, **kwargs):
            raise AssertionError("riesz_projector called")

        monkeypatch.setattr(analytic, "riesz_projector", no_full_projector)
        psi_filter = _reference_vector(lambda b: op, None, contour, stats=filter_stats)
        # The filter path gives P w for the exact projector P = v v^*; the
        # full path gives P_q w, which differs from it by the weights
        # f(E_j) = 1/(1 - z_j^q), j > 0, of the other eigenvectors.
        assert _up_to_scale(psi_filter, vecs[:, 0]) <= 1e-12
        w = np.random.default_rng(analytic._BLOCK_SEED).standard_normal(op.dim)
        z = (vals[1:] - contour.center) / contour.radius
        leak = np.abs(1 / (1 - z ** contour.q)).max() * np.linalg.norm(w) / abs(vecs[:, 0] @ w)
        assert _up_to_scale(psi_filter, psi_full) <= 1e-12 + leak
        filt = track_eigenvalue(lambda b: op, None, contour, psi_full, stats=filter_stats)

        assert abs(filt.E - full.E) <= 1e-12 * max(1.0, abs(full.E))
        assert abs(filt.E - vals[0]) <= 1e-12 * max(1.0, abs(vals[0]))
        assert _up_to_scale(filt.psi, full.psi) <= 1e-12
        assert np.linalg.norm(filt.psi - full.psi) <= 1e-12 * np.linalg.norm(full.psi)
        assert abs(filt.trace - full.trace) <= 1e-12
        assert abs(filt.trace_defect - full.trace_defect) <= 1e-12
        assert abs(filt.defect - full.defect) <= 1e-12
        trace, defect = _closed_form(op, contour)
        assert abs(filt.trace - trace) <= 1e-12
        assert abs(filt.defect - defect) <= 1e-12 * max(1.0, defect)
        if shape == "wide":
            assert 1e-13 < defect < 1e-8  # the wide contour is not trivially exact
            assert filt.trace_defect == pytest.approx(abs(trace - 1), rel=1e-6)
        # Reference (P w) and track (P psi0): one LU and two inverse-iteration
        # columns each, no P.
        assert (filter_stats.factorizations, filter_stats.rhs_columns) == (2, 4)
        assert (filter_stats.full_projectors, full_stats.full_projectors) == (0, 2)
        assert filter_stats.max_projector_defect >= filt.defect

    @pytest.mark.parametrize("name", list(_HERMITIAN_OPERATORS))
    def test_one_shift_and_no_node_solves(self, name, monkeypatch):
        # The reference vector and a tracked point take one band LU each, at
        # E_k + i delta, and never reach the contour node solves.
        op = _HERMITIAN_OPERATORS[name]()
        vals = np.linalg.eigvalsh(op.to_dense())
        contour = Contour(complex(vals[0]), 0.5 * (vals[1] - vals[0]), q=64)
        shifts = []
        band_lu = analytic._band_lu

        def counted(ab, kl, ku, d, lams, stats):
            shifts.append(list(lams))
            return band_lu(ab, kl, ku, d, lams, stats)

        def no_contour_solves(*args, **kwargs):
            raise AssertionError("contour solves called")

        monkeypatch.setattr(analytic, "_band_lu", counted)
        monkeypatch.setattr(analytic, "_node_solves", no_contour_solves)
        monkeypatch.setattr(analytic, "_projector_action", no_contour_solves)
        psi0 = _reference_vector(lambda b: op, None, contour)
        assert len(shifts) == 1
        track_eigenvalue(lambda b: op, None, contour, psi0)
        assert len(shifts) == 2
        delta = analytic._weyl_delta(op)
        for (shift,) in shifts:
            assert shift.imag == delta and abs(shift.real - vals[0]) <= 2 * delta
        if not op.matrix.data.imag.any():
            # A real symmetric H and a real w keep P w real, up to rounding.
            assert np.abs(psi0.imag).max() <= 1e-14

    @pytest.mark.parametrize("name", list(_HERMITIAN_OPERATORS))
    def test_psi0_orthogonal_to_the_eigenvector_fails_survival(self, name):
        # psi0 is the next eigenvector: P psi0 vanishes to rounding.
        op = _HERMITIAN_OPERATORS[name]()
        vals, vecs = np.linalg.eigh(op.to_dense())
        contour = Contour(complex(vals[0]), 0.5 * (vals[1] - vals[0]), q=64)
        with pytest.raises(TrackingError, match="vanished"):
            track_eigenvalue(lambda b: op, None, contour, vecs[:, 1])

    def test_psi0_in_another_invariant_subspace_fails_survival(self):
        # H = diag(1, 0) is reducible: inverse iteration from psi0 = e_0
        # would never see e_1, the eigenvector of the enclosed 0, and would
        # return e_0, whose eigenvalue 1 lies outside the contour.  P psi0 = 0.
        op = DiscreteOperator(sp.diags([1.0, 0.0]).tocsr(), hermitian=True)
        with pytest.raises(TrackingError, match="vanished"):
            track_eigenvalue(lambda b: op, None, Contour(0.0, 0.5, q=64),
                             np.array([1.0, 0.0]))

    @pytest.mark.parametrize("h0, term", [([0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]]),
                                          ([0.0], [[1.0]])], ids=["two_level", "zero"])
    def test_exact_band_eigenvalue_is_no_singular_shift(self, h0, term):
        # At beta = 0 the band eigenvalue 0 of H0 = diag(h0) is exact
        # (two_level, and the 1 x 1 H0 = 0).  The shift 0 + i delta keeps
        # H - sigma regular; for H0 = 0, whose delta = d eps ||H||_1 is 0,
        # the shift is 0 + i eps r.
        family = AffineFamily(DiscreteOperator(sp.diags(h0).tocsr(), hermitian=True),
                              (sp.csr_matrix(np.array(term)),))
        contour = Contour(0.0, 0.5, q=128)
        base = np.zeros(1)
        assert analytic._filter_certificate(family(base), contour)[3] == 0.0
        psi0 = _reference_vector(family, base, contour)
        res = track_eigenvalue(family, base, contour, psi0)
        assert abs(res.E) <= 1e-15 and res.residual <= 1e-15
        assert abs(abs(psi0[0]) - 1.0) <= 1e-15 and np.all(np.abs(psi0[1:]) <= 1e-15)

    @pytest.mark.parametrize("name", list(_HERMITIAN_OPERATORS))
    def test_contour_around_two_eigenvalues_raises(self, name):
        op = _HERMITIAN_OPERATORS[name]()
        vals = np.linalg.eigvalsh(op.to_dense())
        contour = Contour(complex(0.5 * (vals[0] + vals[1])),
                          0.5 * (vals[1] - vals[0]) + 0.4 * (vals[2] - vals[1]), q=64)
        psi0 = np.linalg.eigh(op.to_dense())[1][:, 0]
        for H in (op, op.matrix):
            with pytest.raises(TrackingError):
                _reference_vector(lambda b: H, None, contour)
            with pytest.raises(TrackingError):
                track_eigenvalue(lambda b: H, None, contour, psi0)

    @pytest.mark.parametrize("name", list(_HERMITIAN_OPERATORS))
    def test_under_resolved_contour_raises(self, name):
        # q = 16 and a radius of 0.95 of the gap: the neighbour sits at
        # |z| = 1.05, where |z^-16| = 0.44, so ||P_q^2 - P_q|| is about 1.
        op = _HERMITIAN_OPERATORS[name]()
        vals = np.linalg.eigvalsh(op.to_dense())
        contour = Contour(complex(vals[0]), 0.95 * (vals[1] - vals[0]), q=16)
        psi0 = np.linalg.eigh(op.to_dense())[1][:, 0]
        for H in (op, op.matrix):
            with pytest.raises(QuadratureError):
                _reference_vector(lambda b: H, None, contour)
            with pytest.raises(QuadratureError):
                track_eigenvalue(lambda b: H, None, contour, psi0)

    def test_weyl_term_is_the_first_order_defect_change(self):
        # An eigenvalue 0.3 r outside the circle, where the defect
        # h(E) = |z^q|/|1 - z^q|^2 is 5e-8 (the trace stays within 1e-6 of
        # 1), and ||H||_1 = 1e6, so that delta = d eps ||H||_1 = 6.7e-10
        # moves h by about 2e-15: the reported defect exceeds h at the
        # computed eigenvalue by the first-order change of h over delta.
        op = DiscreteOperator(sp.diags([0.0, 1.3, 1e6]), hermitian=True)
        _, _, defect, _ = analytic._filter_certificate(
            op, Contour(0.0, 1.0, q=64), defect_tol=math.inf)

        def h(E):
            zq = E**64
            return zq / (1 - zq) ** 2

        delta = 3 * np.finfo(float).eps * 1e6
        assert defect - h(1.3) == pytest.approx(h(1.3 - delta) - h(1.3), rel=1e-5)
        assert defect > max(h(1.3), h(1.3 + delta))

    def test_eigenvalue_on_the_contour_raises(self):
        # f has a pole at the node 1.0: with no defect limit the trace check
        # still refuses the infinite trace.
        op = DiscreteOperator(sp.diags([0.0, 1.0, 5.0]), hermitian=True)
        with pytest.raises(QuadratureError, match="trace"):
            analytic._filter_certificate(op, Contour(0.0, 1.0, q=64), defect_tol=math.inf)
        with pytest.raises(QuadratureError, match="defect"):
            analytic._filter_certificate(op, Contour(0.0, 1.0, q=64))


def _random_operator(rng):
    """Hermitian or mildly non-normal operator with known real spectrum, a
    contour around one eigenvalue (radius up to 0.97 of its gap), that
    eigenvalue and its eigenvector."""
    d = int(rng.integers(6, 81))
    q = int(rng.choice([16, 24, 32, 64]))
    vals = np.sort(rng.uniform(-1.0, 1.0, d))
    if rng.random() < 0.5:
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        S = np.linalg.qr(G)[0]
        H = S @ np.diag(vals) @ S.conj().T
    else:
        S = np.eye(d) + 0.3 / np.sqrt(d) * rng.standard_normal((d, d))
        H = S @ np.diag(vals) @ np.linalg.inv(S)
    i = int(rng.integers(d))
    gap = np.min(np.abs(np.delete(vals, i) - vals[i]))
    radius = rng.uniform(0.3, 0.97) * gap
    shift = 0.9 * rng.random() * min(radius, gap - radius)
    center = vals[i] + shift * np.exp(2j * np.pi * rng.random())
    psi0 = S[:, i] / np.linalg.norm(S[:, i])
    return H, Contour(complex(center), radius, q=q), vals[i], psi0


class TestBlockSamples:
    """The action-only Taylor samples: one band LU per node applied to
    Y = [psi0, w1, w2], certified from P Y and (P^2 - P) Y alone."""

    def test_block_defect_catches_every_failing_projector(self):
        rng = np.random.default_rng(2024)
        defect_tol = 1e-8
        failing, resolved, missed = 0, 0, []
        for case in range(160):
            H, contour, E, psi0 = _random_operator(rng)
            full = _quadrature_defect(H, contour)
            if full <= defect_tol / 1000:
                # Well resolved: the block path passes and finds E (dense
                # input: one numpy.linalg.solve factorization per node).
                resolved += 1
                assert _track_block(H, contour, psi0) == pytest.approx(E, abs=1e-8)
            if full <= defect_tol:
                continue
            failing += 1
            try:
                _track_block(H, contour, psi0, defect_tol=defect_tol)
            except QuadratureError:
                continue
            missed.append((case, full))
        assert failing >= 80 and resolved >= 20  # both sides are exercised
        assert missed == []

    def test_contour_around_two_eigenvalues_raises(self):
        # psi0 is an exact eigenvector, so only the rank test can see that
        # the contour also encloses the eigenvalue 0.5.
        with pytest.raises(TrackingError, match="sigma_2/sigma_1"):
            _track_block(np.diag([0.0, 0.5, 10.0]), Contour(0.25, 1.0, q=64),
                         np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("as_input", [np.asarray, sp.csr_matrix],
                             ids=["dense", "sparse"])
    def test_node_on_eigenvalue_raises(self, as_input):
        # The node at angle 0 is exactly 1.0, an eigenvalue.
        with pytest.raises(ShiftNearSpectrumError):
            _track_block(as_input(np.diag([1.0, 10.0])), Contour(0.0, 1.0, q=64),
                         np.array([0.0, 1.0]))

    def test_node_near_eigenvalue_fails_residual_check(self):
        # The node at angle 0 lies 1e-9 from the eigenvalue 1 of a
        # non-diagonal H: the LU succeeds but its solves miss 1e-10 ||B||.
        c, s = np.cos(0.7), np.sin(0.7)
        Q = np.array([[c, -s], [s, c]])
        H = Q @ np.diag([1.0, 10.0]) @ Q.T
        with pytest.raises(ShiftNearSpectrumError, match="solve residual"):
            _track_block(H, Contour(1e-9, 1.0, q=64), Q[:, 0])

    def test_matches_full_projector_on_lattice(self):
        grid = Grid(extent=((0.0, 12.0),), points=(160,))
        term = PotentialTerm(profile=GaussianBump((6.0,), 0.4, 1.0),
                             support=interval_set(4.7, 7.3))
        family = AffineFamily.from_potentials(build_laplacian(grid),
                                              PotentialFamily([term]))
        vals = np.linalg.eigvalsh(family.h0.to_dense())
        contour = Contour(complex(vals[0]), 0.5 * (vals[1] - vals[0]), q=64)
        psi0 = _reference_vector(family, np.zeros(1), contour)
        for zeta in 0.1 * np.exp(2j * np.pi * np.arange(5) / 5):
            beta = np.array([zeta])
            full = track_eigenvalue(family, beta, contour, psi0).E
            block = _track_block(family(beta), contour, psi0)
            assert abs(block - full) <= 1e-12 * max(1.0, abs(full))

    def test_matches_full_projector_on_two_level(self):
        contour = Contour(0.0, 0.5, q=128)
        psi0 = _reference_vector(two_level, np.array([0.0]), contour)
        for b in 0.3 * np.exp(2j * np.pi * np.arange(7) / 7):
            full = track_eigenvalue(two_level, np.array([b]), contour, psi0,
                                    residual_tol=1e-10).E
            block = _track_block(two_level(np.array([b])), contour, psi0,
                                 residual_tol=1e-10)
            assert abs(block - full) <= 1e-12 * max(1.0, abs(full))
            assert block == pytest.approx(two_level_energy(b), abs=1e-10)

    def test_failed_block_defect_falls_back_to_full_projector(self, monkeypatch):
        def block_fails(*args, **kwargs):
            raise QuadratureError("block defect above defect_tol / 10")

        _without_shift_invert(monkeypatch)
        monkeypatch.setattr(analytic, "_track_block", block_fails)
        contour = Contour(0.0, 0.5, q=64)
        path = taylor_eigenpath(two_level, np.array([0.0]),
                                Direction(np.array([1.0])), contour,
                                r=0.2, M=8, q=32)
        # Nodes 17..31 and test points 5..7 are mirrored, not re-tracked.
        # The reference vector builds one more full projector.
        assert path.stats.fallbacks == 17 + 5
        assert path.stats.full_projectors == 17 + 5 + 1
        assert path.stats.mirrored == 15 + 3
        assert len(path.samples) == 32 + 8
        assert path.coefficients[2] == pytest.approx(-1.0, abs=1e-8)
        # The full projector still rejects what its own test rejects.
        with pytest.raises(QuadratureError):
            taylor_eigenpath(two_level, np.array([0.0]), Direction(np.array([1.0])),
                             contour, r=0.2, M=8, q=32, defect_tol=1e-30)

    def test_taylor_builds_one_full_projector(self, monkeypatch):
        calls = []
        full = analytic.riesz_projector

        def counted(*args, **kwargs):
            calls.append(args)
            return full(*args, **kwargs)

        monkeypatch.setattr(analytic, "riesz_projector", counted)
        _without_shift_invert(monkeypatch)
        path = taylor_eigenpath(two_level, np.array([0.0]),
                                Direction(np.array([1.0])), Contour(0.0, 0.5, q=64),
                                r=0.3, M=8, q=32)
        assert len(calls) == 1  # the reference vector at the base point
        assert len(path.samples) == 32 + 8
        assert path.stats.fallbacks == 0 and path.stats.full_projectors == 1
        assert path.stats.mirrored == 15 + 3
        assert path.stats.block_samples == 22 and path.stats.shift_invert == 0
        # The reference vector's 64 identity solves of d = 2 columns, then
        # two solves of Y's 3 columns per node of each block sample.
        block = 64 * (len(path.samples) - path.stats.mirrored)
        assert path.stats.factorizations == 64 + block
        assert path.stats.rhs_columns == 64 * 2 + 2 * 3 * block
        assert path.stats.max_defect <= 1e-9
        assert path.stats.max_rank_ratio <= 1e-6


class TestTaylorAlong:
    def test_linear_function(self):
        f = lambda beta: 2.0 + 3.0 * beta[0]
        A = taylor_along(f, np.array([0.0]), Direction(np.array([1.0])), r=0.5, M=8)
        assert A[0] == pytest.approx(2.0, abs=1e-12)
        assert A[1] == pytest.approx(3.0, abs=1e-12)
        assert np.max(np.abs(A[2:])) < 1e-12

    def test_constant(self):
        A = taylor_along(lambda beta: 3.7, np.array([0.0]), Direction(np.array([1.0])),
                         r=1.0, M=8, q=64)
        assert A[1] == pytest.approx(0.0, abs=1e-12)

    def test_exponential(self):
        A = taylor_along(lambda beta: np.exp(beta[0]), np.array([0.0]),
                         Direction(np.array([1.0])), r=1.0, M=16, q=64)
        assert A[1] == pytest.approx(1.0, abs=1e-12)

    def test_resolvent_identity_oracle(self):
        # d/dzeta (H0 + zeta V - lam0)^-1 at 0 is -R V R.
        rng = np.random.default_rng(4)
        d = 12
        A = rng.standard_normal((d, d))
        H0 = (A + A.T) / 2
        V = np.diag(rng.standard_normal(d))
        lam0 = 2j * np.linalg.norm(H0, 2)

        def f(beta):
            return np.linalg.inv(H0 + beta[0] * V - lam0 * np.eye(d))

        got = taylor_along(f, np.array([0.0]), Direction(np.array([1.0])),
                           r=0.5, M=16, q=64)[1]
        R = np.linalg.inv(H0 - lam0 * np.eye(d))
        oracle = -R @ V @ R
        np.testing.assert_allclose(got, oracle, atol=1e-8)

    def test_two_level_series_oracle(self):
        contour = Contour(0.0, 0.5, q=128)
        path = taylor_eigenpath(two_level, np.array([0.0]),
                                Direction(np.array([1.0])), contour,
                                r=0.3, M=16, q=128, residual_tol=1e-10)
        A = path.coefficients
        # (1 - sqrt(1 + 4 b^2))/2 = -b^2 + b^4 - 2 b^6 + 5 b^8 - ...
        assert A[0] == pytest.approx(0.0, abs=1e-10)
        assert A[1] == pytest.approx(0.0, abs=1e-10)
        assert A[2] == pytest.approx(-1.0, abs=1e-8)
        assert A[3] == pytest.approx(0.0, abs=1e-8)
        assert A[4] == pytest.approx(1.0, abs=1e-8)
        assert A[6] == pytest.approx(-2.0, abs=1e-7)

    def test_first_order_is_rayleigh_quotient(self):
        rng = np.random.default_rng(6)
        d = 10
        A0 = rng.standard_normal((d, d))
        H0 = (A0 + A0.T) / 2
        V = np.diag(rng.standard_normal(d))
        vals, vecs = np.linalg.eigh(H0)
        psi0 = vecs[:, 0]
        gap = vals[1] - vals[0]
        contour = Contour(complex(vals[0]), 0.4 * gap, q=96)

        def family(beta):
            return H0 + beta[0] * V

        path = taylor_eigenpath(family, np.array([0.0]),
                                Direction(np.array([1.0])), contour,
                                r=0.05 * gap / max(np.linalg.norm(V, 2), 1e-12),
                                M=8, q=64)
        rayleigh = (psi0 @ V @ psi0) / (psi0 @ psi0)
        assert path.coefficients[1].real == pytest.approx(rayleigh, abs=1e-8)

    def test_first_derivative_matches_finite_difference(self):
        contour = Contour(0.0, 0.5, q=128)
        base = np.array([0.1])
        direction = Direction(np.array([1.0]))
        psi0 = _reference_vector(two_level, base, contour)

        def E(b):
            return track_eigenvalue(two_level, np.array([b]), contour, psi0).E

        path = taylor_eigenpath(two_level, base, direction, contour, r=0.1, M=8, q=64)
        step = 1e-5
        fd = (E(0.1 + step) - E(0.1 - step)) / (2 * step)
        assert path.coefficients[1] == pytest.approx(fd, rel=1e-6)

    def test_scaling_covariance(self):
        c = 2.0
        contour = Contour(0.0, 0.5, q=128)
        p1 = taylor_eigenpath(two_level, np.array([0.0]),
                              Direction(np.array([1.0])), contour, r=0.3, M=12, q=128)
        p2 = taylor_eigenpath(two_level, np.array([0.0]),
                              Direction(np.array([c])), contour, r=0.15, M=12, q=128)
        for m in range(13):
            assert p2.coefficients[m] * c**-m == pytest.approx(
                p2.coefficients[m] / c**m
            )
            assert p2.coefficients[m] == pytest.approx(
                p1.coefficients[m] * c**m, abs=1e-6 * max(1.0, abs(p1.coefficients[m]) * c**m)
            )
        assert p2.radius == pytest.approx(p1.radius / c, rel=0.05)


def _bumps_1d_family():
    """The shipped bumps_1d family beta -> H(beta) (see `_bumps_1d`)."""
    grid = Grid(extent=((0.0, 12.0),), points=(160,))
    family = PotentialFamily([
        PotentialTerm(profile=GaussianBump((c,), 0.4, 1.0),
                      support=interval_set(c - 1.3, c + 1.3))
        for c in (3.0, 6.0, 9.0)])
    return AffineFamily.from_potentials(build_laplacian(grid), family)


def _complex_term_family():
    """[[0, b c], [b conj(c), 1]] with c = 1 + 0.2i: Hermitian for real b,
    but H(conj b) != conj H(b)."""
    h0 = DiscreteOperator(sp.diags([0.0, 1.0], format="csr"), hermitian=True)
    term = sp.csr_matrix(np.array([[0.0, 1 + 0.2j], [1 - 0.2j, 0.0]]))
    return AffineFamily(h0, (term,))


class TestSchwarzReflection:
    """Real families: `_series` samples on conjugate-symmetric nodes and
    `taylor_eigenpath` takes a node's sample as the conjugate of an earlier
    one when the family, base, direction and contour centre are real."""

    @pytest.mark.parametrize("q", [128, 37])
    def test_series_nodes_are_conjugate_symmetric(self, q):
        zetas = []

        def f(beta):
            zetas.append(complex(beta[0]))
            return 1.0

        analytic._sampled(f, np.zeros(1, dtype=complex), np.ones(1, dtype=complex), 0.3, q)
        nodes, test = np.array(zetas[:q]), np.array(zetas[q:])
        assert len(test) == 8
        for calls, n in ((nodes, q), (test, 8)):
            # Called a conjugate pair at a time; z[j] is node j.
            z = np.empty(n, dtype=complex)
            z[analytic._pair_order(n)] = calls
            j = np.arange(1, (n + 1) // 2)
            assert np.array_equal(z[n - j].view(float)[0::2], z[j].view(float)[0::2])
            assert np.array_equal(z[n - j].view(float)[1::2], -z[j].view(float)[1::2])
            np.testing.assert_allclose(np.abs(z), 0.3 if n == q else 0.15, rtol=1e-15)

    def test_matrix_contraction_matches_tensordot(self):
        rng = np.random.default_rng(5)
        d, q, M, r = 12, 64, 9, 0.5
        A0 = rng.standard_normal((d, d))
        H0 = (A0 + A0.T) / 2
        V = rng.standard_normal((d, d))
        lam0 = 2j * np.linalg.norm(H0, 2)

        def f(beta):
            return np.linalg.inv(H0 + beta[0] * V - lam0 * np.eye(d))

        base, t = np.zeros(1, dtype=complex), np.ones(1, dtype=complex)
        A, err = _series(analytic._sampled(f, base, t, r, q), r, M)
        nodes = analytic._conjugate_circle(r, q)
        samples = np.stack([f(base + z * t) for z in nodes])
        angles = 2 * np.pi * np.arange(q) / q
        ref = np.stack([np.tensordot(np.exp(-1j * m * angles), samples, axes=(0, 0))
                        / (q * r**m) for m in range(M + 1)])
        assert np.max(np.abs(A - ref)) <= 1e-13 * np.max(np.abs(ref))
        test = analytic._conjugate_circle(0.5 * r, 8)
        ref_err = max(np.max(np.abs(f(base + z * t) - sum(ref[m] * z**m for m in range(M + 1))))
                      for z in test) / np.max(np.abs(samples))
        assert err == pytest.approx(ref_err, rel=1e-6, abs=1e-15)

    @pytest.mark.parametrize("case", ["bumps_1d", "two_level"])
    def test_mirrored_samples_equal_direct_ones(self, case):
        if case == "bumps_1d":
            family = _bumps_1d_family()
            base = np.array([0.06, 0.04, 0.03])
            direction = Direction(np.array([1.0, 0.0, 0.0]))
            vals = np.linalg.eigvalsh(family(base).to_dense())
            contour = Contour(complex(vals[0]), 0.5 * (vals[1] - vals[0]), q=64)
            r = 0.1
        else:
            family, base = two_level, np.array([0.0])
            direction = Direction(np.array([1.0]))
            contour, r = Contour(0.0, 0.5, q=64), 0.3
        path = taylor_eigenpath(family, base, direction, contour, r=r, M=8, q=32)
        assert path.stats.mirrored == 15 + 3
        # r < r0: every computed sample is shift-invert, two LUs each, after
        # the reference vector's one LU (Hermitian H) or one LU per contour
        # node (dense two_level).
        assert path.stats.shift_invert == 32 + 8 - 18 and path.stats.block_samples == 0
        reference = 1 if case == "bumps_1d" else contour.q
        assert path.stats.factorizations == reference + 2 * (32 + 8 - 18)
        psi0 = _reference_vector(family, base, contour)
        mirrored = [(z, E) for z, E in path.samples if z.imag < -1e-14]
        assert len(mirrored) == 18
        for zeta, E in mirrored:
            direct = _track_block(family(base + zeta * direction.t), contour, psi0)
            assert abs(E - direct) <= 1e-12 * abs(direct)
            if case == "two_level":
                assert E == pytest.approx(two_level_energy(zeta), abs=1e-10)

    @pytest.mark.parametrize("case", ["complex_term", "complex_base",
                                      "complex_direction", "centre_off_axis"])
    def test_nothing_mirrored_off_the_real_case(self, case):
        family, base = two_level, np.array([0.0])
        direction, contour = Direction(np.array([1.0])), Contour(0.0, 0.5, q=64)
        if case == "complex_term":
            family = _complex_term_family()
        elif case == "complex_base":
            base = np.array([0.05j])
        elif case == "complex_direction":
            direction = Direction(np.array([np.exp(0.3j)]))
        else:
            contour = Contour(1e-3j, 0.5, q=64)
        path = taylor_eigenpath(family, base, direction, contour, r=0.2, M=8, q=32)
        assert path.stats.mirrored == 0
        # H(b) of the complex term is Hermitian, not symmetric: the block
        # path, 64 LUs a sample, and a reference vector of one shift-invert
        # LU.  The other cases are complex symmetric with r < r0:
        # shift-invert, two LUs a sample, and the dense two_level reference
        # vector takes one LU per contour node.
        block = case == "complex_term"
        assert path.stats.block_samples == (32 + 8 if block else 0)
        assert path.stats.shift_invert == (0 if block else 32 + 8)
        reference = 1 if block else contour.q
        assert path.stats.factorizations == reference + (64 if block else 2) * (32 + 8)

    def test_mirrored_sample_builds_one_hamiltonian(self):
        """A mirrored sample is checked against the H(beta) its partner,
        sampled just before it, built, and builds only its own."""
        family, base, direction, contour, r = _shipped_bumps_1d_path()
        calls = []

        def counted(beta):
            calls.append(beta)
            return family(beta)

        path = taylor_eigenpath(counted, base, direction, contour, r=r, M=8, q=32)
        # H(base) for the reference vector and for r0, H(base + t) for V_t,
        # then one H(beta) per node and test point.
        assert len(calls) == 3 + 32 + 8
        assert path.stats.mirrored == 18 and path.stats.shift_invert == 22


def _shipped_bumps_1d_path():
    """The shipped bumps_1d taylor task's family, base, direction, contour
    (around the lowest eigenvalue of H0, radius half the gap) and r."""
    family = _bumps_1d_family()
    vals = np.linalg.eigvalsh(family.h0.to_dense())
    contour = Contour(complex(vals[0]), 0.5 * (vals[1] - vals[0]), q=64)
    return family, np.zeros(3), Direction(np.array([1.0, 0.0, 0.0])), contour, 0.1


class TestBandLU:
    """`_band_lu` is the one band factorization: the contour nodes of
    `_node_solves` and the shift-invert samples both take it."""

    def test_one_shift_is_the_plain_band_lu(self):
        op = _bumps_1d()
        ab, kl, ku = analytic._band_storage(op.matrix, op.dim)
        shift = 0.3 + 0.01j
        band = ab.copy()
        band[kl + ku] -= shift
        lu, piv, info = scipy.linalg.lapack.zgbtrf(band, kl, ku)
        stats = BlockStats()
        got = analytic._band_lu(ab, kl, ku, op.dim, np.array([shift]), stats)
        assert info == 0 and stats.factorizations == 1
        assert np.array_equal(got[0], lu) and np.array_equal(got[1], piv)

    def test_singular_block_is_flagged_and_left_as_the_identity(self):
        # Stored zeros cut row and column 0 off: at shift H[0, 0] the
        # middle block's first column is zero.  The other blocks keep the
        # bits of their own LU and solve, and the stack stays finite.
        mat = sp.csr_matrix(_bumps_1d().matrix, copy=True)
        mat[0, 1] = mat[1, 0] = 0.0
        d = mat.shape[0]
        ab, kl, ku = analytic._band_storage(mat, d)
        assert (kl, ku) == (1, 1)
        shifts = np.array([0.3 + 0.01j, mat[0, 0], 0.5 - 0.02j])
        stats = BlockStats()
        lu, piv, singular = analytic._band_lu(ab, kl, ku, d, shifts, stats)
        assert singular.tolist() == [False, True, False] and stats.factorizations == 3
        rng = np.random.default_rng(3)
        b = rng.standard_normal(3 * d) + 1j * rng.standard_normal(3 * d)
        x = scipy.linalg.lapack.zgbtrs(lu, kl, ku, b, piv)[0]
        assert np.array_equal(x[d:2 * d], b[d:2 * d])
        for k in (0, 2):
            one_lu, one_piv, one_singular = analytic._band_lu(ab, kl, ku, d, shifts[k:k + 1],
                                                              BlockStats())
            block = slice(k * d, (k + 1) * d)
            assert not one_singular.any()
            assert np.array_equal(lu[:, block], one_lu)
            assert np.array_equal(piv[block] - k * d, one_piv)
            one_x = scipy.linalg.lapack.zgbtrs(one_lu, kl, ku, b[block], one_piv)[0]
            assert np.array_equal(x[block], one_x)

    @pytest.mark.parametrize("block", [False, True], ids=["shift-invert", "block"])
    def test_counts_every_factorization(self, block, monkeypatch):
        shifts = []
        band_lu = analytic._band_lu

        def counted(ab, kl, ku, d, lams, stats):
            shifts.extend(lams)
            return band_lu(ab, kl, ku, d, lams, stats)

        monkeypatch.setattr(analytic, "_band_lu", counted)
        if block:
            _without_shift_invert(monkeypatch)
        family, base, direction, contour, r = _shipped_bumps_1d_path()
        stats = BlockStats()
        psi0 = _reference_vector(family, base, contour, stats=stats)
        track_eigenvalue(family, np.array([0.06, 0.04, 0.03]), contour, psi0, stats=stats)
        # One shift-invert LU for the reference vector, one for the point.
        assert len(shifts) == stats.factorizations == 2
        shifts.clear()
        path = taylor_eigenpath(family, base, direction, contour, r=r, M=8, q=32)
        # `path.stats` counts the LU of the path's reference vector too.
        assert len(shifts) == path.stats.factorizations
        assert path.stats.factorizations == 1 + (64 if block else 2) * (32 + 8 - 18)
        assert path.stats.shift_invert == (0 if block else 32 + 8 - 18)


class TestShiftInvertSamples:
    """Taylor samples inside the certified radius r0 of
    `contour_kato_radius`: one shift-invert solve each, gated by its
    residual, checked against the block contour path and closed forms."""

    @pytest.mark.parametrize("case", ["bumps_1d", "two_level"])
    def test_samples_match_block_path(self, case):
        if case == "bumps_1d":
            family, base, direction, contour, r = _shipped_bumps_1d_path()
        else:
            family, base = two_level, np.array([0.0])
            direction, contour, r = Direction(np.array([1.0])), Contour(0.0, 0.5, q=64), 0.3
        path = taylor_eigenpath(family, base, direction, contour, r=r, M=8, q=32)
        assert path.stats.shift_invert == 32 + 8 - 18 and path.stats.block_samples == 0
        # The reference vector: one LU for the Hermitian bumps_1d H, one per
        # contour node for the dense two_level H.
        reference = 1 if case == "bumps_1d" else contour.q
        assert path.stats.factorizations == reference + 2 * path.stats.shift_invert
        assert 0 < path.stats.max_margin_ratio < 1e-6
        psi0 = _reference_vector(family, base, contour)
        computed = [(z, E) for z, E in path.samples if z.imag >= 0]
        assert len(computed) == 22
        assert sum(z.imag > 0.1 * r for z, _ in computed) >= 10  # complex zeta
        for zeta, E in computed:
            block = _track_block(family(base + zeta * direction.t), contour, psi0)
            assert abs(E - block) <= 1e-12 * abs(block)
            if case == "two_level":
                assert abs(E - two_level_energy(zeta)) <= 1e-12 * abs(E)

    def test_two_level_radius_is_below_branch_points(self):
        # The eigenvalues of [[0, b], [b, 1]] meet on the contour |E| = 1/2
        # at b = +-i/2, so no certificate may pass 0.5.
        h0 = two_level(np.array([0.0]))
        v = two_level(np.array([1.0])) - h0
        r0 = contour_kato_radius(h0, v, Contour(0.0, 0.5, q=64))
        assert 0.5 * (1 - 1e-12) < r0 <= 0.5
        path = taylor_eigenpath(two_level, np.array([0.0]), Direction(np.array([1.0])),
                                Contour(0.0, 0.5, q=64), r=0.3, M=8, q=32)
        assert path.certified_radius == r0

    def test_shipped_bumps_1d_radius(self):
        family, base, direction, contour, r = _shipped_bumps_1d_path()
        r0 = contour_kato_radius(family(base), family.perturbation(direction.t), contour)
        assert r < r0 < 1.004 * r

    def test_radius_certifies_one_enclosed_eigenvalue(self):
        # Real symmetric and complex symmetric H (Hermitian part plus a small
        # skew part i B) and a real symmetric V: for every sampled
        # |zeta| < r0 the dense eigenvalues of H + zeta V put exactly one
        # inside the contour.
        rng = np.random.default_rng(31)
        certified = 0
        for case in range(60):
            d = int(rng.integers(3, 9))
            A, B, W = (rng.standard_normal((d, d)) for _ in range(3))
            H = (A + A.T) / 2 + (1j * 0.05 * (B + B.T) if case % 2 else 0)
            V = (W + W.T) / 2
            vals = np.linalg.eigvalsh((H + H.conj().T) / 2)
            i = int(rng.integers(d))
            gap = np.min(np.abs(np.delete(vals, i) - vals[i]))
            contour = Contour(complex(vals[i] + 0.1 * gap * rng.uniform(-1, 1)),
                              gap * rng.uniform(0.3, 0.6), q=64)
            r0 = contour_kato_radius(H, V, contour)
            if r0 == 0:
                continue
            certified += 1
            for u in (0.999, *rng.uniform(0, 1, 7)):
                zeta = u * r0 * np.exp(2j * np.pi * rng.random())
                E = np.linalg.eigvals(H + zeta * V)
                assert np.count_nonzero(np.abs(E - contour.center) < contour.radius) == 1
        assert certified >= 30

    def test_contour_around_two_eigenvalues_gives_zero(self):
        H = np.diag([0.0, 0.5, 10.0])
        assert contour_kato_radius(H, np.eye(3), Contour(0.25, 1.0, q=64)) == 0.0

    def test_radius_at_or_past_r0_takes_block_path(self):
        # A contour of radius 1/4 around E = 0 certifies r0 < 1/4 < r.
        contour = Contour(0.0, 0.25, q=64)
        path = taylor_eigenpath(two_level, np.array([0.0]), Direction(np.array([1.0])),
                                contour, r=0.3, M=8, q=32)
        assert path.certified_radius < 0.25
        assert path.stats.shift_invert == 0 and path.stats.block_samples == 22
        assert path.stats.factorizations == contour.q + 64 * 22
        assert path.coefficients[2] == pytest.approx(-1.0, abs=1e-8)

    @pytest.mark.parametrize("miss", ["residual", "margin", "outside"])
    def test_sample_missing_the_gate_falls_back(self, monkeypatch, miss):
        # two_level, r = 0.3: r0 = 0.5 and ||V_t|| = 1 give the margin 0.2.
        real = analytic._shift_invert_samples

        def missing(mats, sigmas, x, stats):
            return [{"residual": (E, 1.0), "margin": (E, 0.3),
                     "outside": (E + 1.0, rho)}[miss]
                    for E, rho in real(mats, sigmas, x, stats)]

        monkeypatch.setattr(analytic, "_shift_invert_samples", missing)
        residual_tol = 0.5 if miss == "margin" else 1e-8
        path = taylor_eigenpath(two_level, np.array([0.0]), Direction(np.array([1.0])),
                                Contour(0.0, 0.5, q=64), r=0.3, M=8, q=32,
                                residual_tol=residual_tol)
        assert path.stats.shift_invert == 0 and path.stats.block_samples == 22
        assert path.stats.factorizations == 64 + (2 + 64) * 22
        assert path.stats.max_margin_ratio == 0.0
        assert path.coefficients[2] == pytest.approx(-1.0, abs=1e-8)


class TestChunkedShiftInvert:
    """`_shift_invert_samples` takes a path's computed samples a chunk at a
    time: how they are chunked cannot change a bit, and a singular sample
    leaves the rest of its chunk as it would be."""

    def test_chunk_size_changes_no_bit(self, monkeypatch):
        family, base, direction, contour, r = _shipped_bumps_1d_path()
        factor = analytic.lapack.zgbtrf
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(analytic.lapack, "zgbtrf", counted)
        paths, factorizations = [], []
        for cap in (1, 1 << 40):
            monkeypatch.setattr(analytic, "_CHUNK_ENTRIES", cap)
            calls.clear()
            paths.append(taylor_eigenpath(family, base, direction, contour, r=r, M=16, q=128))
            factorizations.append(len(calls))
        one, whole = paths
        computed = 128 + 8 - one.stats.mirrored
        assert one.stats.shift_invert == computed == 70
        # The reference vector's LU, then two per sample, or two in all.
        assert factorizations == [1 + 2 * computed, 1 + 2]
        assert one.stats == whole.stats and one.stats.factorizations == 1 + 2 * computed
        assert np.array_equal(np.array(one.samples).view(float),
                              np.array(whole.samples).view(float))
        assert np.array_equal(one.coefficients.view(float), whole.coefficients.view(float))

    def test_singular_sample_leaves_its_chunk(self, monkeypatch):
        # The middle sample of the first chunk gets a zero first column at
        # its shift (its band widths kept by stored zeros): only it goes to
        # the block path, on the H(beta) the path built.
        family, base, direction, contour, r = _shipped_bumps_1d_path()
        plain = taylor_eigenpath(family, base, direction, contour, r=r, M=8, q=32)
        real = analytic._shift_invert_samples
        singular = []

        def with_singular(mats, sigmas, x, stats):
            mats, sigmas = list(mats), list(sigmas)
            if not singular:
                k = len(mats) // 2
                mat = sp.csr_matrix(mats[k].matrix, copy=True)
                mat[0, 1] = mat[1, 0] = 0.0
                mats[k], sigmas[k] = mat, mat[0, 0]
                singular.append((k, len(mats)))
            results = real(mats, sigmas, x, stats)
            if len(singular) == 1:
                k, _ = singular[0]
                assert results[k] is None
                singular.append(results)
            return results

        monkeypatch.setattr(analytic, "_shift_invert_samples", with_singular)
        path = taylor_eigenpath(family, base, direction, contour, r=r, M=8, q=32)
        (k, n), results = singular
        assert 2 < k < n - 2
        assert results[:k] + results[k + 1:] != [] and None not in results[:k] + results[k + 1:]
        assert path.stats.shift_invert == plain.stats.shift_invert - 1
        assert path.stats.block_samples == 1 and plain.stats.block_samples == 0
        # Its first LU counts, its second is never made; the block path's
        # 64 node LUs replace it.
        assert path.stats.factorizations == plain.stats.factorizations - 1 + 64
        computed = [i for i, (z, _) in enumerate(plain.samples) if z.imag >= 0]
        moved = computed[k]
        z_moved, E_moved = path.samples[moved]
        for i, ((z, E), (z0, E0)) in enumerate(zip(path.samples, plain.samples)):
            assert z == z0
            if i == moved:
                assert E != E0 and abs(E - E0) <= 1e-12 * abs(E0)
            elif z == z_moved.conjugate():  # its mirror
                assert E == E_moved.conjugate()
            else:
                assert complex(E).real == complex(E0).real and complex(E).imag == complex(E0).imag

    def test_memory_is_one_chunk_whatever_q(self):
        family, base, direction, contour, r = _shipped_bumps_1d_path()
        peaks = []
        for q in (64, 256):
            taylor_eigenpath(family, base, direction, contour, r=r, M=16, q=q)
            tracemalloc.start()
            try:
                taylor_eigenpath(family, base, direction, contour, r=r, M=16, q=q)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


class TestRadius:
    def test_geometric(self):
        assert radius_of_convergence(np.ones(17)) == pytest.approx(1.0, rel=1e-9)

    def test_two_level_branch_points(self):
        contour = Contour(0.0, 0.5, q=128)
        path = taylor_eigenpath(two_level, np.array([0.0]),
                                Direction(np.array([1.0])), contour,
                                r=0.3, M=16, q=128)
        assert path.radius == pytest.approx(0.5, rel=0.10)

    def test_polynomial_is_entire(self):
        coeffs = np.zeros(17)
        coeffs[:4] = [1.0, -2.0, 0.5, 0.25]
        assert radius_of_convergence(coeffs) == math.inf

    def test_requires_enough_coefficients(self):
        with pytest.raises(ValueError):
            radius_of_convergence(np.ones(5))


class TestVerifyAnalyticFamily:
    def _setup(self, seed=0, d=6, n=2):
        rng = np.random.default_rng(seed)
        A0 = rng.standard_normal((d, d))
        H0 = (A0 + A0.T) / 2
        Vs = [np.diag(rng.standard_normal(d)) for _ in range(n)]
        psis = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2)]
        dirs = [Direction(np.eye(n)[0].astype(complex)),
                Direction(rng.standard_normal(n) + 1j * rng.standard_normal(n))]
        return H0, Vs, psis, dirs

    def test_affine_family_passes(self):
        H0, Vs, psis, dirs = self._setup()

        def family(beta):
            return H0 + sum(b * V for b, V in zip(beta, Vs))

        report = verify_analytic_family(family, [np.zeros(2), 0.1 * np.ones(2)],
                                        dirs, psis, r=0.2, M=8, recon_tol=1e-9)
        assert report.passed
        recon = [r for r in report.records if "Cauchy-Riemann" not in r.check]
        assert all(r.residual < 1e-9 for r in recon)

    def test_modulus_family_flagged(self):
        H0, Vs, psis, dirs = self._setup(seed=1)

        def family(beta):
            return H0 + abs(beta[0]) * Vs[0]

        report = verify_analytic_family(family, [0.3 * np.ones(2)], dirs, psis,
                                        r=0.2, M=8)
        assert not report.passed
        assert any("Cauchy-Riemann" in r.check for r in report.failures())

    def test_zero_family_passes(self):
        H0, Vs, psis, dirs = self._setup(seed=2)

        def family(beta):
            return H0 + 0.0 * beta[0] * Vs[0]

        report = verify_analytic_family(family, [np.zeros(2)], dirs, psis)
        assert report.passed


    def test_refuses_dimension_above_dense_limit(self, monkeypatch):
        # Each resolvent sample is a d x d matrix: above the dense limit the
        # check raises before it samples a non-Hermitian family.
        H0, Vs, psis, dirs = self._setup(seed=3)
        monkeypatch.setattr(lattice, "DENSE_MAX_DIM", 5)
        monkeypatch.setattr(analytic, "_series",
                            lambda *a: pytest.fail("sampled above the dense limit"))

        def family(beta):
            return H0 + 1j * beta[0] * Vs[0]

        with pytest.raises(LatticeError, match="dimension 6 exceeds the dense limit 5"):
            verify_analytic_family(family, [np.ones(2)], dirs, psis)


def _random_non_hermitian(rng, d, skew):
    """Dense complex H = A + skew * B with A Hermitian and B anti-Hermitian,
    both of unit scale, as a non-Hermitian `DiscreteOperator`."""
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    B = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = (A + A.conj().T) / 2 + skew * (B - B.conj().T) / 2
    return DiscreteOperator(sp.csr_matrix(H), hermitian=False), H


class TestKatoCertificate:
    """`resolvent_gap` and `kato_radius` against dense SVDs and the
    two-level closed form."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("skew", [0.0, 0.3, 3.0])
    def test_gap_below_sigma_min(self, seed, skew):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 40))
        op, H = _random_non_hermitian(rng, d, skew)
        shifts = [10j * max(op.norm_bound(), 1.0), -3j * op.norm_bound() + 0.7,
                  complex(*rng.standard_normal(2) * op.norm_bound())]
        for lam in shifts:
            gap = resolvent_gap(op, lam)
            smin = scipy.linalg.svdvals(H - lam * np.eye(d))[-1]
            assert gap <= smin
        # The CLI shift keeps the bound positive and within a factor 2 of
        # the truth, however skew H is.
        lam = shifts[0]
        assert 0.5 * scipy.linalg.svdvals(H - lam * np.eye(d))[-1] < resolvent_gap(op, lam)

    def test_gap_of_hermitian_is_imaginary_part(self):
        rng = np.random.default_rng(4)
        op, H = _random_non_hermitian(rng, 12, 0.0)
        lam = 2.0 + 5j
        gap = resolvent_gap(op, lam)
        assert 5.0 * (1 - 1e-12) < gap <= 5.0
        assert gap <= scipy.linalg.svdvals(H - lam * np.eye(12))[-1]

    def test_resolvent_invertible_inside_radius(self):
        # Weyl for singular values: sigma_min(H + zeta V - lam) >=
        # gap - |zeta| ||V|| > 0 on |zeta| < rho.
        rng = np.random.default_rng(5)
        op, H = _random_non_hermitian(rng, 20, 0.5)
        vop, V = _random_non_hermitian(rng, 20, 1.0)
        lam = 10j * op.norm_bound()
        rho = kato_radius(op, vop, lam)
        assert 0 < rho < math.inf
        for zeta in 0.999 * rho * np.exp(2j * np.pi * np.arange(16) / 16):
            assert scipy.linalg.svdvals(H + zeta * V - lam * np.eye(20))[-1] > 0

    def test_two_level_radius_below_pole(self):
        # H0 = diag(0, 1), V = sigma_x: (H0 + zeta V - 10i)^-1 has its poles
        # where zeta^2 = lam^2 - lam = -100 - 10i, at |zeta| ~ 10.025.
        h0 = DiscreteOperator(sp.csr_matrix(np.diag([0.0, 1.0])), hermitian=True)
        v = DiscreteOperator(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
                             hermitian=True)
        rho = kato_radius(h0, v, 10j)
        pole = math.sqrt(abs(-100 - 10j))
        assert 10.0 * (1 - 1e-12) < rho <= 10.0 < pole
        det = lambda z: np.linalg.det(two_level(z) - 10j * np.eye(2))
        assert abs(det(cmath.sqrt(-100 - 10j))) < 1e-9

    def test_degenerate_cases(self):
        h0 = DiscreteOperator(sp.csr_matrix(np.diag([0.0, 1.0])), hermitian=True)
        zero = DiscreteOperator(sp.csr_matrix((2, 2)), hermitian=True)
        assert kato_radius(h0, zero, 10j) == math.inf
        # A real shift gives no gap bound, so no radius is certified.
        assert kato_radius(h0, h0, 0.5) == 0.0


def _both_inputs(dense):
    """The same Hermitian matrix as a dense ndarray (a library input, taken
    as CSR by `gamma_membership`) and as a Hermitian `DiscreteOperator`."""
    return dense, DiscreteOperator(sp.csr_matrix(dense), hermitian=True)


def _random_band(kind, d, seed):
    """A random sparse band matrix of dimension d: real symmetric, complex
    Hermitian, or non-Hermitian with unequal band widths."""
    rng = np.random.default_rng(seed)
    lower, upper = (2, 3) if kind == "non_hermitian" else (3, 3)
    offsets = [k for k in range(-lower, upper + 1) if abs(k) < d]
    diags = [rng.standard_normal(d - abs(k)) for k in offsets]
    if kind != "real_symmetric":
        diags = [v + 1j * rng.standard_normal(len(v)) for v in diags]
    mat = sp.diags(diags, offsets, format="csr")
    if kind == "non_hermitian":
        return DiscreteOperator(mat, hermitian=False)
    return DiscreteOperator((mat + mat.getH()) / 2, hermitian=True)


def _shifts(dense, hermitian):
    """lambda on the imaginary axis near the spectrum and far from it, in
    the interior of the spectrum (a quarter of the way from the middle
    eigenvalue to its nearest neighbour) and exactly on that eigenvalue."""
    vals = np.linalg.eigvalsh(dense) if hermitian else np.linalg.eigvals(dense)
    vals = vals[np.argsort(vals.real, kind="stable")]
    mid = complex(vals[len(vals) // 2])
    others = np.delete(vals, len(vals) // 2)
    near = complex(others[np.argmin(np.abs(others - mid))]) if len(others) else mid + 1
    return {"imaginary": 0.05j, "far": 100j, "interior": mid + 0.25 * (near - mid),
            "eigenvalue": mid}


def _stated_slack(dense, lam):
    """sigma_min^2 - margin^2 that the `gamma_membership` docstring allows a
    certified margin, recomputed from the dense H: eta sigma_min(A)^2 + 3c
    for A = H - lambda, or H - Re lambda for a Hermitian H, with c from the
    band widths kl, ku, the band p of A^H A, the Schur bound S of |A| and
    b = max_j (A^H A)_jj; plus the rounding of the Ritz value and of the
    margin, and the error of the dense SVD it is compared with."""
    d = len(dense)
    hermitian = np.array_equal(dense, dense.conj().T)
    A = dense - (lam.real if hermitian else lam) * np.eye(d)
    rows, cols = np.nonzero(A)
    kl, ku = max(0, int((rows - cols).max())), max(0, int((cols - rows).max()))
    p = min(kl + ku, d - 1)
    S2 = np.abs(A).sum(axis=0).max() * np.abs(A).sum(axis=1).max()
    b = float((np.abs(A) ** 2).sum(axis=0).max())
    eps = np.finfo(float).eps
    c = eps * ((kl + ku + 5) * S2 + ((p + 4) * (2 * p + 1) + 1) * b) * (1 + (d + 8) * eps)
    sv = scipy.linalg.svdvals(A)
    ritz = 8 * eps * (sv[-min(analytic._SMIN_COLUMNS, d):] ** 2).sum()
    full = scipy.linalg.svdvals(dense - lam * np.eye(d))
    rounding = 4 * eps * full[-1] * (full[-1] + full[0])
    return analytic._SMIN_ETA * sv[-1] ** 2 + 3 * c + ritz + rounding


def _no_dense_path(monkeypatch):
    """Fail on any band reduction, SVD or densification."""
    def dense(*args, **kwargs):
        raise AssertionError("dense path taken")

    monkeypatch.setattr(analytic, "_band_eigenvalues", dense)
    monkeypatch.setattr(analytic.la, "svdvals", dense)
    monkeypatch.setattr(analytic.la, "svd", dense)
    monkeypatch.setattr(DiscreteOperator, "to_dense", dense)
    monkeypatch.setattr(sp.csr_matrix, "toarray", dense)


class TestGammaMembership:
    """The far, eigenvalue and boundary checks run on both inputs of
    `_both_inputs`."""

    def test_far_shift(self):
        dense = np.diag([0.0, 1.0, 2.0])
        lam = 10j * np.linalg.norm(dense, 2)
        for H in _both_inputs(dense):
            member, margin = gamma_membership(lambda b: H, np.zeros(1), lam)
            assert member and margin > 1.0

    def test_eigenvalue_shift(self):
        for H in _both_inputs(np.diag([0.0, 1.0, 2.0])):
            member, margin = gamma_membership(lambda b: H, np.zeros(1), 1.0 + 0j)
            assert not member and margin <= 1e-10

    def test_boundary_scan_flips_once(self):
        # Membership along a real segment crossing the lowest eigenvalue of
        # the 2x2 family flips exactly once, at the dense-oracle eigenvalue.
        b = np.array([0.3])
        E0 = two_level_energy(0.3).real
        lams = np.linspace(E0 - 0.05, E0 + 0.05, 5001)
        for H in _both_inputs(two_level(b)):
            flags = [gamma_membership(lambda b: H, b, complex(l), tol=1e-8)[0]
                     for l in lams]
            flips = [i for i in range(len(flags) - 1) if flags[i] != flags[i + 1]]
            # One flip into the eigenvalue and one out of it on the sampled
            # segment; the non-membership window is centered on the oracle value.
            assert 1 <= len(flips) <= 2
            window = lams[~np.asarray(flags)]
            assert abs(window.mean() - E0) <= 1e-6

    def test_dense_guard_before_densifying(self, monkeypatch):
        # No dense guard is left: above the dense limit a non-Hermitian H,
        # as sparse CSR or as ndarray, certifies with no SVD and no
        # densified copy, below the SVD and within the stated slack of it.
        dense = (1 + 0.5j) * np.roll(np.eye(3), 1, axis=1) + np.diag([0.0, 1.0, 2.0])
        lam = 0.3 + 0.2j
        sigma = scipy.linalg.svdvals(dense - lam * np.eye(3))[-1]
        slack = _stated_slack(dense, lam)
        monkeypatch.setattr(lattice, "DENSE_MAX_DIM", 2)
        _no_dense_path(monkeypatch)
        for H in (sp.csr_matrix(dense), dense):
            member, margin = gamma_membership(lambda b: H, None, lam)
            assert member and margin <= sigma
            assert sigma ** 2 - margin ** 2 <= slack

    @pytest.mark.parametrize("name", ["bumps_1d", "random_banded"])
    def test_band_margin_matches_dense_svd(self, name, monkeypatch):
        # The Cholesky margin lies below the SVD of the same matrix and
        # within the stated slack of it, a relative 1e-6 here, with no band
        # reduction and no d x d array.
        op = _HERMITIAN_OPERATORS[name]()
        dense = op.to_dense()
        vals = np.linalg.eigvalsh(dense)
        lams = [1e-3j, complex(vals[0] - 0.5, 0.0),
                complex(0.6 * vals[0] + 0.4 * vals[1], 1e-4)]
        svd = [scipy.linalg.svdvals(dense - lam * np.eye(len(dense)))[-1] for lam in lams]
        slacks = [_stated_slack(dense, lam) for lam in lams]
        _no_dense_path(monkeypatch)
        for lam, smin, slack in zip(lams, svd, slacks):
            member, margin = gamma_membership(lambda b: op, None, lam)
            assert member and margin <= smin
            assert smin ** 2 - margin ** 2 <= slack
            assert margin == pytest.approx(smin, rel=1e-6)

    @pytest.mark.parametrize("kind", ["real_symmetric", "hermitian", "non_hermitian"])
    @pytest.mark.parametrize("d", [2, 3, 8, 41, 300])
    def test_certificate_against_dense_svd(self, kind, d, monkeypatch):
        # 0 <= margin <= sigma_min of the dense SVD, and sigma_min^2 -
        # margin^2 within the stated slack; exactly on an eigenvalue that
        # slack is all of sigma_min^2.  Far from the spectrum a non-Hermitian
        # H's smallest singular values cluster, the guess does not converge
        # and the margin may be the gap (see `gamma_membership`).  A real
        # symmetric H is certified in real storage at a complex lambda, any
        # other in complex storage.
        op = _random_band(kind, d, seed=d)
        dense = op.matrix.toarray()
        shifts = _shifts(dense, op.hermitian)
        expected = {lam: (scipy.linalg.svdvals(dense - lam * np.eye(d))[-1],
                          _stated_slack(dense, lam)) for lam in shifts.values()}
        factors = []
        for name in ("dpbtrf", "zpbtrf"):
            real = getattr(analytic.lapack, name)
            monkeypatch.setattr(analytic.lapack, name,
                                lambda *a, real=real, name=name, **k:
                                factors.append(name) or real(*a, **k))
        _no_dense_path(monkeypatch)
        for where, lam in shifts.items():
            sigma, slack = expected[lam]
            member, margin = gamma_membership(lambda b: op, None, lam)
            assert max(resolvent_gap(op, lam), 0.0) <= margin <= sigma, where
            if op.hermitian or where != "far":
                assert sigma ** 2 - margin ** 2 <= slack, where
            if where != "eigenvalue":
                assert member, where
        assert factors.count("dpbtrf" if kind == "real_symmetric" else "zpbtrf") >= 2
        assert set(factors) == {"dpbtrf" if kind == "real_symmetric" else "zpbtrf"}

    @pytest.mark.parametrize("kind", ["real_symmetric", "hermitian", "non_hermitian"])
    def test_failed_cholesky_falls_back_to_resolvent_gap(self, kind, monkeypatch):
        # The gap is |Im lambda| for a Hermitian H, and negative, so the
        # margin 0, for this non-Hermitian one.
        op = _random_band(kind, 41, seed=5)
        lam = 0.1 + 2.0j
        certified = gamma_membership(lambda b: op, None, lam)[1]
        for name in ("dpbtrf", "zpbtrf"):
            monkeypatch.setattr(analytic.lapack, name, lambda ab, **k: (ab, 1))
        member, margin = gamma_membership(lambda b: op, None, lam)
        assert margin == max(resolvent_gap(op, lam), 0.0) < certified
        assert member == op.hermitian

    def test_forms_no_d_by_d_array(self):
        # d = 1600: the peak traced memory stays below one real d x d array.
        H = _lattice_2d(0.8, points=(40, 40))
        gamma_membership(lambda b: H, None, 1e-3j)
        tracemalloc.start()
        try:
            member, _ = gamma_membership(lambda b: H, None, 1e-3j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert member and peak < 8 * H.dim ** 2


class TestBandEigenvalueStorage:
    """`_band_eigenvalues` reduces a real symmetric band in real storage and a
    complex Hermitian band in complex storage."""

    @staticmethod
    def _record_storage(monkeypatch):
        dtypes = []
        eigvals_banded = analytic.la.eigvals_banded

        def recorded(a_band, *args, **kwargs):
            dtypes.append(np.asarray(a_band).dtype)
            return eigvals_banded(a_band, *args, **kwargs)

        monkeypatch.setattr(analytic.la, "eigvals_banded", recorded)
        return dtypes

    def test_real_storage_on_a_24_by_24_lattice(self, monkeypatch):
        # d = 576, kd = 24: the band of the certify_2d lattice.
        H = _lattice_2d(0.8, points=(24, 24))
        ab, kl, ku = analytic._band_storage(H.matrix, H.dim)
        assert (H.dim, ku) == (576, 24) and not ab.imag.any()
        complex_storage = analytic.la.eigvals_banded(ab[kl:kl + ku + 1])
        dense = np.linalg.eigvalsh(H.to_dense())
        dtypes = self._record_storage(monkeypatch)
        E = analytic._band_eigenvalues(H.matrix, H.dim)
        assert dtypes == [np.float64]
        delta = analytic._weyl_delta(H)
        assert np.all(np.diff(E) >= 0)
        assert np.abs(E - complex_storage).max() <= delta
        assert np.abs(E - dense).max() <= delta

    def test_complex_hermitian_band_keeps_complex_storage(self, monkeypatch):
        H0 = _lattice_2d(0.8, points=(12, 12))
        d = H0.dim
        hop = sp.diags([np.full(d - 12, 0.3j)], [12], shape=(d, d))
        H = DiscreteOperator(H0.matrix + hop + hop.getH(), hermitian=True)
        dtypes = self._record_storage(monkeypatch)
        E = analytic._band_eigenvalues(H.matrix, d)
        assert dtypes == [np.complex128]
        dense = np.linalg.eigvalsh(H.to_dense())
        assert np.abs(E - dense).max() <= analytic._weyl_delta(H)


def _sparse_track_2d():
    """H(beta) of perfbench's seed-3 sparse_track_2d scenario: a 15 x 14
    lattice (d = 210) with three bumps."""
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(root / "perfbench"))
    (_, doc), = workloads.scenarios("sparse_track_2d", 3, root)
    grid = Grid(extent=tuple(tuple(e) for e in doc["grid"]["extent"]),
                points=tuple(doc["grid"]["points"]))
    family = cli.build_family(doc["family"], np.random.default_rng(doc["seed"]))
    return AffineFamily.from_potentials(build_laplacian(grid), family)(
        np.asarray(doc["beta"]["values"], dtype=complex))


def _stored_zeros():
    """A complex Hermitian band with stored zeros: H(0) of a family whose one
    term has entries outside the band's pattern."""
    band = _random_banded(d=40, width=2)
    term = sp.diags([np.full(35, 0.5 - 0.25j)], [5], shape=(40, 40), format="csr")
    H = AffineFamily(band, (term + term.getH(),))(np.zeros(1))
    assert H.hermitian and (H.matrix.data == 0).any()
    return H


_WEYL_OPERATORS = {
    "bumps_1d": _bumps_1d,
    "sparse_track_2d": _sparse_track_2d,
    "stored_zeros": _stored_zeros,
    "non_hermitian": lambda: _random_non_hermitian(np.random.default_rng(5), 30, 0.3)[0],
    "zero_1x1": lambda: DiscreteOperator(sp.csr_matrix((1, 1)), hermitian=True),
}


class TestSpectrumOncePerOperator:
    """`_weyl_delta` from the CSR arrays, and the band eigenvalues and delta
    `_spectrum` keeps on a Hermitian operator."""

    @pytest.mark.parametrize("name", list(_WEYL_OPERATORS))
    def test_weyl_delta_has_the_bits_of_the_sparse_column_sums(self, name):
        op = _WEYL_OPERATORS[name]()
        sums = abs(op.matrix).sum(axis=0)
        assert analytic._weyl_delta(op) == op.dim * np.finfo(float).eps * float(sums.max())

    def test_weyl_delta_bits_on_random_sparse_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            d = int(rng.integers(1, 60))
            mat = sp.random(d, d, density=rng.uniform(0.05, 0.6), format="csr", rng=rng)
            mat = mat + 1j * sp.random(d, d, density=0.3, format="csr", rng=rng) * 1e3
            op = DiscreteOperator(mat, hermitian=False)
            sums = abs(op.matrix).sum(axis=0)
            assert analytic._weyl_delta(op) == d * np.finfo(float).eps * float(sums.max())

    @pytest.mark.parametrize("name", ["bumps_1d", "stored_zeros", "zero_1x1"])
    def test_reduced_once_and_read_only(self, name, monkeypatch):
        op = _WEYL_OPERATORS[name]()
        fresh = analytic._band_eigenvalues(op.matrix, op.dim)
        calls = []
        band_eigenvalues = analytic._band_eigenvalues
        monkeypatch.setattr(analytic, "_band_eigenvalues",
                            lambda mat, d: calls.append(d) or band_eigenvalues(mat, d))
        E, delta = analytic._spectrum(op)
        assert analytic._spectrum(op)[0] is E and len(calls) == 1
        assert np.array_equal(E, fresh) and delta == analytic._weyl_delta(op)
        with pytest.raises(ValueError):
            E[0] = 1.0
        # A new operator on the same matrix is reduced anew.
        analytic._spectrum(DiscreteOperator(op.matrix, hermitian=True))
        assert len(calls) == 2

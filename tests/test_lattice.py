"""Lattice: grids, Laplacian, Hamiltonian assembly, coupling sequences."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from specpert import analytic, lattice
from specpert.geometry import Box, SupportSet, interval_set
from specpert.lattice import (
    AffineFamily,
    CouplingSeq,
    DiscreteOperator,
    Grid,
    GridMismatchError,
    LatticeError,
    assemble_hamiltonian,
    build_laplacian,
    graph_norm,
    is_hermitian,
    laplacian_eigenvalues_1d,
    schur_norm,
)
from specpert.potentials import (ConstantProfile, GaussianBump, PotentialFamily, PotentialTerm,
                                 PowerSpike)


def grid_1d(n=32, a=0.0, b=1.0):
    return Grid(extent=((a, b),), points=(n,))


class TestGrid:
    def test_spacing(self):
        g = grid_1d(11, 0.0, 1.0)
        assert g.spacing == (0.1,)
        assert g.size == 11

    def test_budget(self):
        with pytest.raises(LatticeError):
            Grid(extent=((0, 1), (0, 1), (0, 1)), points=(200, 200, 200))

    def test_budget_checked_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(LatticeError, match="budget is 2000000"):
                Grid(extent=((0, 1), (0, 1)), points=(1500, 1500))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rejects_tiny_axes(self):
        with pytest.raises(LatticeError):
            Grid(extent=((0, 1),), points=(2,))

    def test_nodes_row_major(self):
        g = Grid(extent=((0, 1), (0, 2)), points=(3, 3))
        nodes = g.nodes()
        assert nodes.shape == (9, 2)
        np.testing.assert_allclose(nodes[0], [0, 0])
        np.testing.assert_allclose(nodes[1], [0, 1])
        np.testing.assert_allclose(nodes[3], [0.5, 0])


class TestLaplacian:
    def test_affine_function_interior(self):
        g = grid_1d(50)
        h0 = build_laplacian(g)
        f = g.nodes()[:, 0]
        out = h0.matvec(f)
        # Second difference of an affine function vanishes away from the
        # Dirichlet boundary rows.
        np.testing.assert_allclose(out[1:-1], 0.0, atol=1e-10)

    def test_zero_vector(self):
        h0 = build_laplacian(grid_1d())
        np.testing.assert_array_equal(h0.matvec(np.zeros(h0.dim)), 0.0)

    @pytest.mark.parametrize("n", [8, 33, 100])
    def test_eigenvalues_closed_form(self, n):
        g = grid_1d(n, 0.0, 2.0)
        h0 = build_laplacian(g)
        computed = np.sort(np.linalg.eigvalsh(h0.to_dense()))
        oracle = np.sort(laplacian_eigenvalues_1d(n, g.spacing[0]))
        scale = np.abs(oracle).max()
        np.testing.assert_allclose(computed, oracle, atol=1e-10 * scale)

    def test_3d_kron_sum_spectrum(self):
        g = Grid(extent=((0, 1), (0, 1), (0, 1)), points=(4, 4, 4))
        h0 = build_laplacian(g)
        e1 = laplacian_eigenvalues_1d(4, g.spacing[0])
        oracle = np.sort((e1[:, None, None] + e1[None, :, None] + e1[None, None, :]).ravel())
        computed = np.sort(np.linalg.eigvalsh(h0.to_dense()))
        np.testing.assert_allclose(computed, oracle, atol=1e-9 * oracle.max())

    def test_hermitian_flag_enforced(self):
        import scipy.sparse as sp

        with pytest.raises(LatticeError):
            DiscreteOperator(sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])),
                             hermitian=True)

    def test_to_dense_refuses_above_the_dense_limit(self, monkeypatch):
        # 65 x 65 = 4225 > DENSE_MAX_DIM: refused before any array is built.
        import scipy.sparse as sp

        def no_array(self, *args, **kwargs):
            raise AssertionError("dense array built")

        h0 = build_laplacian(Grid(extent=((0.0, 1.0), (0.0, 1.0)), points=(65, 65)))
        monkeypatch.setattr(sp.csr_matrix, "toarray", no_array)
        with pytest.raises(LatticeError, match="dense limit 4096"):
            h0.to_dense()


# Grids of 3 to 9 points per axis on extents where 1/h^2 is not a float.
CLOSED_FORM_GRIDS = {
    "1d_3": (((0.0, 0.7),), (3,)),
    "1d_4": (((-1.3, 2.1),), (4,)),
    "1d_5": (((0.0, 0.7),), (5,)),
    "1d_9": (((-1.3, 2.1),), (9,)),
    "2d_3x9": (((0.0, 0.7), (-1.3, 2.1)), (3, 9)),
    "2d_5x4": (((0.1, 3.0), (0.0, 0.7)), (5, 4)),
    "2d_9x9": (((-1.3, 2.1), (0.0, 1.1)), (9, 9)),
    "3d_3x4x5": (((0.0, 0.7), (-1.3, 2.1), (0.1, 3.0)), (3, 4, 5)),
    "3d_9x3x7": (((0.0, 1.1), (0.0, 0.7), (-1.3, 2.1)), (9, 3, 7)),
}


def closed_form_laplacian(name):
    extent, points = CLOSED_FORM_GRIDS[name]
    return build_laplacian(Grid(extent=extent, points=points))


def kronecker_sum_laplacian(grid):
    """Oracle: the Kronecker sum of the 1D matrices tridiag(-1, 2, -1)/h^2,
    axis by axis, as scipy's kron and sparse sum build it."""
    op = None
    for n, h in zip(grid.points, grid.spacing):
        part = sp.diags([np.full(n - 1, -1.0 / h**2), np.full(n, 2.0 / h**2),
                         np.full(n - 1, -1.0 / h**2)], [-1, 0, 1], format="csr")
        op = part if op is None else (sp.kron(op, sp.identity(n, format="csr"), format="csr")
                                      + sp.kron(sp.identity(op.shape[0], format="csr"), part,
                                                format="csr"))
    return DiscreteOperator(op, hermitian=True)


class TestClosedFormSpectrum:
    """`build_laplacian` gives the operator its spectrum, and an H(beta) that
    adds no term to H0 carries it."""

    @pytest.mark.parametrize("extent, points", list(CLOSED_FORM_GRIDS.values()) + [
        # (a_0 + a_1) + a_2 rounds apart from a_0 + (a_1 + a_2) and from
        # (a_2 + a_1) + a_0 here.
        (((0.0, 0.7), (0.0, 0.7), (0.1, 3.0)), (4, 3, 5))],
        ids=list(CLOSED_FORM_GRIDS) + ["3d_4x3x5_order"])
    def test_csr_is_the_kronecker_sum(self, extent, points):
        # Built from the stencil, the stored CSR arrays are those of the
        # Kronecker sum, to the bit.
        op = build_laplacian(Grid(extent=extent, points=points))
        oracle = kronecker_sum_laplacian(op.grid).matrix
        for got, want in [(op.matrix.indptr, oracle.indptr),
                          (op.matrix.indices, oracle.indices),
                          (op.matrix.data.view(np.uint64), oracle.data.view(np.uint64))]:
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", list(CLOSED_FORM_GRIDS))
    def test_within_delta_of_the_stored_matrix_exact_spectrum(self, name):
        # Oracle: the exact eigenvalues of the stored floats, in 40 digits.
        # Every row stores the one diagonal D and, on axis k (stride s_k),
        # the off-diagonal -a_k/2, so the spectrum of the Kronecker sum is
        # D - sum_k a_k cos(j_k pi/(n_k+1)).
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        op = closed_form_laplacian(name)
        points = op.grid.points
        E, delta = op._spectrum
        diag = op.matrix.diagonal()
        assert np.all(diag == diag[0])
        strides = [int(np.prod(points[k + 1:])) for k in range(len(points))]
        a = [-2 * mpmath.mpf(float(op.matrix[0, s].real)) for s in strides]
        exact = sorted(
            mpmath.mpf(float(diag[0].real))
            - sum(a_k * mpmath.cos(j * mpmath.pi / (n + 1)) for a_k, j, n in zip(a, js, points))
            for js in itertools.product(*[range(1, n + 1) for n in points]))
        err = max(abs(mpmath.mpf(float(e)) - x) for e, x in zip(E, exact))
        assert err <= delta
        assert delta >= analytic._weyl_delta(op)

    @pytest.mark.parametrize("name", list(CLOSED_FORM_GRIDS))
    def test_agrees_with_the_band_and_dense_eigenvalues(self, name):
        op = closed_form_laplacian(name)
        E, delta = op._spectrum
        # Each is within its delta of the same exact spectrum.
        band = analytic._band_eigenvalues(op.matrix, op.dim)
        assert np.abs(E - band).max() <= delta + analytic._weyl_delta(op)
        dense = np.linalg.eigvalsh(op.to_dense())
        assert np.abs(E - dense).max() <= 2 * delta

    def test_read_only_and_not_reduced(self, monkeypatch):
        monkeypatch.setattr(analytic, "_band_eigenvalues",
                            lambda *a: pytest.fail("Laplacian band reduced"))
        op = closed_form_laplacian("2d_9x9")
        E, delta = analytic._spectrum(op)
        assert E is op._spectrum[0] and delta == analytic._weyl_delta(op)
        assert np.all(np.diff(E) >= 0)
        with pytest.raises(ValueError):
            E[0] = 1.0

    def test_h0_spectrum_only_while_no_term_is_added(self):
        h0 = closed_form_laplacian("2d_9x9")
        fam = constant_family([1.0, 2.0], [SupportSet((Box((0.0, 0.0), (0.5, 1.0)),)),
                                           SupportSet((Box((-1.0, 0.0), (1.0, 0.5)),))])
        system = AffineFamily.from_potentials(h0, fam)
        for beta in ((), (0.0,), (0.0, 0.0)):
            H = system(np.asarray(beta))
            assert H._spectrum is h0._spectrum
            assert np.array_equal(H.to_dense(), h0.to_dense())
        for beta in ((0.5,), (0.0, -1.0), (1e-300, 0.0), (0.5j, 0.0)):
            assert system(np.asarray(beta, dtype=complex))._spectrum is None
        assert system.perturbation(np.zeros(2))._spectrum is None

    def test_matrix_h0_still_reduces(self):
        # A `matrix` H0 has no closed form: H(0) reduces on first use, and
        # carries H0's band eigenvalues once H0 was reduced.
        band = sp.diags([np.full(5, -0.5), np.arange(6.0), np.full(5, -0.5)], [-1, 0, 1])
        h0 = DiscreteOperator(band, hermitian=True)
        system = AffineFamily(h0, (sp.identity(6, format="csr"),))
        assert h0._spectrum is None and system(np.zeros(1))._spectrum is None
        E, delta = analytic._spectrum(h0)
        assert np.array_equal(E, analytic._band_eigenvalues(h0.matrix, 6))
        assert delta == analytic._weyl_delta(h0)
        assert system(np.zeros(1))._spectrum is h0._spectrum


def constant_family(values, supports):
    terms = [
        PotentialTerm(profile=ConstantProfile(v), support=s)
        for v, s in zip(values, supports)
    ]
    return PotentialFamily(terms)


def via_affine_family(h0, fam, beta):
    """H(beta) from an AffineFamily, called with a NumPy coupling vector."""
    return AffineFamily.from_potentials(h0, fam)(np.asarray(beta.values))


# Each assembly case runs through both public ways of forming H(beta).
BUILDERS = (assemble_hamiltonian, via_affine_family)


class TestAssembly:
    def test_zero_beta_returns_h0(self):
        g = grid_1d()
        h0 = build_laplacian(g)
        fam = constant_family([1.0], [interval_set(0.0, 1.0)])
        for build in BUILDERS:
            h = build(h0, fam, CouplingSeq((0.0,)))
            assert (h.matrix != h0.matrix).nnz == 0

    def test_constant_shift(self):
        g = grid_1d()
        h0 = build_laplacian(g)
        c = 2.5
        fam = constant_family([c], [interval_set(-1.0, 2.0)])
        oracle = h0.to_dense() + c * np.eye(h0.dim)
        for build in BUILDERS:
            h = build(h0, fam, CouplingSeq((1.0,)))
            np.testing.assert_allclose(h.to_dense(), oracle, atol=0)

    def test_disjoint_terms_dense_oracle(self):
        g = grid_1d(40, 0.0, 4.0)
        h0 = build_laplacian(g)
        fam = constant_family([1.0, 1.0], [interval_set(0.0, 1.0),
                                           interval_set(2.0, 3.0)])
        beta = CouplingSeq((1.0, -1.0))
        # Dense brute-force assembly oracle.
        nodes = g.nodes()
        v1 = fam.terms[0].evaluate(nodes)
        v2 = fam.terms[1].evaluate(nodes)
        oracle = h0.to_dense() + np.diag(v1 - v2)
        for build in BUILDERS:
            h = build(h0, fam, beta)
            np.testing.assert_allclose(h.to_dense(), oracle.astype(complex), atol=0)
            np.testing.assert_allclose(np.real(h.diagonal() - h0.diagonal()),
                                       np.real(v1 - v2))

    def test_beta_longer_than_family_rejected(self):
        g = grid_1d()
        h0 = build_laplacian(g)
        fam = constant_family([1.0], [interval_set(0.0, 1.0)])
        for build in BUILDERS:
            with pytest.raises(LatticeError):
                build(h0, fam, CouplingSeq((1.0, 2.0)))

    def test_complex_coupling_clears_hermitian_flag(self):
        g = grid_1d()
        h0 = build_laplacian(g)
        fam = constant_family([1.0], [interval_set(0.0, 1.0)])
        for build in BUILDERS:
            assert build(h0, fam, CouplingSeq((1.0,))).hermitian
            assert not build(h0, fam, CouplingSeq((1j,))).hermitian


# 4 x 4 terms for the Hermitian tests, with their verdicts decided by the
# sparse subtraction (`subtraction_verdict`).
HERMITIAN_CASES = [
    sp.diags([1.0, -2.0, 0.0, 3.5], format="csr"),
    sp.diags([1.0, 2.0 + 1e-300j, 0.0, 3.5], format="csr"),
    sp.diags([1.0, np.inf, 0.0, 3.5], format="csr"),
    sp.csr_matrix((4, 4)),
    sp.csr_matrix(([1 + 1j, 1 - 1j, 2.0], [1, 1, 2], [0, 0, 2, 3, 3]), shape=(4, 4)),
    sp.diags([[1.0, 1.0, 1.0], [2.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0]],
             [-1, 0, 1], format="csr"),
    sp.diags([[1j, 1.0, 1.0], [2.0, 0.0, 0.0, 1.0], [-1j, 1.0, 1.0]],
             [-1, 0, 1], format="csr"),
    sp.diags([[1.0, 1.0, 1.0], [2.0, 0.0, 0.0, 1.0], [1.0, 2.0, 1.0]],
             [-1, 0, 1], format="csr"),
    # An explicit zero at (0, 2) whose transpose is not stored.
    sp.csr_matrix(([1.0, 0.0, 2.0, 3.0], [0, 2, 1, 3], [0, 2, 3, 3, 4]), shape=(4, 4)),
    # A stored -0.0 at (0, 2) only, and a pair whose real parts are +-0.0.
    sp.csr_matrix(([1.0, -0.0, 0.5j, -0.5j], [0, 2, 3, 1], [0, 2, 3, 3, 4]), shape=(4, 4)),
    # A pair at (1, 2) that differs in the last bit.
    sp.csr_matrix(([1.0, np.nextafter(1.0, 2.0)], [2, 1], [0, 0, 1, 2, 2]), shape=(4, 4)),
    # A pair of NaN entries.
    sp.csr_matrix(([np.nan, np.nan], [2, 1], [0, 0, 1, 2, 2]), shape=(4, 4)),
]
HERMITIAN_IDS = ["real_diagonal", "complex_diagonal", "infinite_diagonal", "empty",
                 "cancelling_duplicates", "real_symmetric", "complex_hermitian",
                 "not_hermitian", "explicit_zero_unpaired", "signed_zeros",
                 "last_bit_pair", "nan_pair"]


def subtraction_verdict(mat) -> bool:
    """Whether mat - mat^H stores only zeros: the definition of Hermitian."""
    mat = sp.csr_matrix(mat, dtype=complex)
    defect = abs(mat - mat.conj().T)
    return bool(not defect.nnz or defect.max() == 0.0)


# Entries of the random matrices of `TestTransposeLookup`: small integers,
# so that summed duplicates give the same bits in any order, signed zeros,
# and real, imaginary and complex infinities and NaNs.
ENTRY_POOL = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1 + 2j, 1 - 2j, -2j, np.nan,
              complex(np.nan, 1.0), np.inf, -np.inf, complex(np.inf, 0.0),
              complex(0.0, np.inf), complex(np.inf, -np.inf)]


def random_sparse(rng, conj: bool) -> sp.csr_matrix:
    """A random n x n CSR matrix (n from 1 to 6), most of whose entries have
    their transpose, or its conjugate when `conj`, stored too; with
    duplicate entries (an exact summand: 0, -0, or x and -x) and its column
    indices unsorted within rows."""
    n = int(rng.integers(1, 7))
    entries = []
    for _ in range(int(rng.integers(0, 2 * n + 2))):
        i, j = (int(k) for k in rng.integers(n, size=2))
        v = complex(ENTRY_POOL[rng.integers(len(ENTRY_POOL))])
        entries.append((i, j, v))
        if rng.random() < 0.8:
            entries.append((j, i, v.conjugate() if conj else v))
        if rng.random() < 0.2:
            x = float(rng.choice([0.0, -0.0, 1.0]))
            entries += [(i, j, x), (i, j, -x)]
    order = rng.permutation(len(entries))
    rows = np.array([entries[k][0] for k in order], dtype=np.int64)
    cols = np.array([entries[k][1] for k in order], dtype=np.int64)
    data = np.array([entries[k][2] for k in order], dtype=complex)
    by_row = np.argsort(rows, kind="stable")
    mat = sp.csr_matrix((data[by_row], cols[by_row],
                         np.searchsorted(rows[by_row], np.arange(n + 1))), shape=(n, n))
    if rng.random() < 0.3 and not np.iscomplex(mat.data).any():
        mat = mat.real.tocsr()
    return mat


def old_norm_bound(mat) -> float:
    """The Schur bound as `DiscreteOperator.norm_bound` computed it on its own
    complex CSR copy of `mat`."""
    mat = sp.csr_matrix(mat, dtype=complex, copy=True)
    mat.sum_duplicates()
    a = abs(mat)
    return float(np.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max()))


class TestTransposeLookup:
    """`is_hermitian`, the family's term table and `analytic._is_symmetric`
    share one transpose lookup (`lattice._transpose_positions`); the Schur
    norm (`lattice.schur_norm`) is the one operator bound."""

    def test_hermitian_verdict_is_the_subtraction(self):
        rng = np.random.default_rng(41)
        hermitian = 0
        for _ in range(400):
            mats = [random_sparse(rng, conj=True) for _ in range(3)]
            expected = [subtraction_verdict(m) for m in mats]
            assert [is_hermitian(m) for m in mats] == expected
            hermitian += sum(expected)
            # The table holds terms of one size: its per-term offsets keep
            # each lookup inside its term.
            n = mats[0].shape[0]
            same = [m for m in mats if m.shape[0] == n]
            system = AffineFamily(DiscreteOperator(sp.identity(n, format="csr"),
                                                   hermitian=True), tuple(same))
            assert system.terms_hermitian == tuple(expected[:1] + [
                e for m, e in zip(mats[1:], expected[1:]) if m.shape[0] == n])
            with np.errstate(invalid="ignore"):
                for beta in (np.ones(len(same)), np.full(len(same), 0.5j)):
                    for layout, op in ((system._layout, system.perturbation(beta)),
                                       (system._layout, system(beta))):
                        assert layout_verdict(layout, op) is subtraction_verdict(op.matrix)
        assert 200 <= hermitian <= 1000  # both verdicts are exercised

    def test_operator_leaves_its_input_alone(self):
        # Real duplicates summed into a complex copy: csr_matrix shares the
        # index arrays, and an in-place sum once left the input's indptr
        # pointing at its unsummed data.
        mat = sp.csr_matrix((np.array([np.inf, np.nan, 1.0]), np.array([0, 0, 1]),
                             np.array([0, 2, 3])), shape=(2, 2))
        arrays = [a.copy() for a in (mat.data, mat.indices, mat.indptr)]
        op = DiscreteOperator(mat, hermitian=False)
        for before, after in zip(arrays, (mat.data, mat.indices, mat.indptr)):
            np.testing.assert_array_equal(before, after)
        assert np.isnan(op.matrix[0, 0]) and op.matrix.nnz == 2

    def test_symmetric_verdict_is_the_comparison(self):
        rng = np.random.default_rng(43)
        symmetric = 0
        for _ in range(1200):
            mat = random_sparse(rng, conj=False)
            expected = (mat != mat.T).nnz == 0
            assert analytic._is_symmetric(mat) is expected
            symmetric += expected
        assert 200 <= symmetric <= 1000

    def test_schur_norm_keeps_the_operator_bits(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
            dense = dense + 1j * rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
            mat = random_sparse(rng, conj=False) if rng.random() < 0.2 else sp.csr_matrix(dense)
            with np.errstate(invalid="ignore"):
                expected = old_norm_bound(mat)
                for bound in (DiscreteOperator(mat, hermitian=False).norm_bound(),
                              schur_norm(lattice._canonical(mat))):
                    assert bound == pytest.approx(expected, rel=0, abs=0, nan_ok=True)
            # The gap bound reads the same bits off an array, a matrix with
            # unsorted duplicates and an operator.
            skew = old_norm_bound((dense - dense.conj().T) / 2)
            slack = (n + 8) * np.finfo(float).eps
            gap = (0.7 - skew * (1 + slack)) * (1 - slack)
            for H in (dense, sp.csr_matrix(dense), DiscreteOperator(dense, hermitian=False)):
                assert analytic.resolvent_gap(H, 0.3 + 0.7j) == gap


def layout_verdict(layout, op) -> bool:
    """The family's Hermitian test of `op`, an H(beta) or V(beta) on `layout`."""
    return layout.is_hermitian(np.append(op.matrix.data, 0))


def bump_family(centers, width=0.3):
    return PotentialFamily([
        PotentialTerm(profile=GaussianBump((c,), width, 1.0),
                      support=interval_set(c - 1.0, c + 1.0), center=(c,))
        for c in centers
    ])


class TestAffineFamily:
    def test_perturbation_dense_oracle(self):
        g = grid_1d(60, 0.0, 4.0)
        fam = bump_family([1.0, 1.8, 3.0])
        system = AffineFamily.from_potentials(build_laplacian(g), fam)
        vs = [term.evaluate(g.nodes()) for term in fam.terms]
        for t, hermitian in (((0.5, -1.25, 2.0), True), ((0.5, 0.0, 2j), False)):
            oracle = sum(ti * np.diag(vi) for ti, vi in zip(t, vs))
            v = system.perturbation(np.asarray(t))
            np.testing.assert_allclose(v.to_dense(), oracle, rtol=1e-15, atol=0)
            assert v.hermitian is hermitian
            np.testing.assert_allclose(
                system(np.asarray(t)).to_dense(), system.h0.to_dense() + oracle,
                rtol=1e-15, atol=0)

    def test_perturbation_norm_bound_oracle(self):
        # The Schur test sqrt(||V||_1 ||V||_inf) is the exact ||V||_2, max|diag|
        # to the bit, for the multiplication operators of a grid family, and
        # an upper bound on it for non-diagonal (`matrix` family) terms.
        g = grid_1d(60, 0.0, 4.0)
        system = AffineFamily.from_potentials(build_laplacian(g),
                                              bump_family([1.0, 1.8, 3.0]))
        for t in ((0.5, -1.25, 2.0), (0.5, 0.0, 2j)):
            v = system.perturbation(np.asarray(t))
            assert v.norm_bound() == np.abs(v.diagonal()).max()
            assert v.norm_bound() == pytest.approx(np.linalg.norm(v.to_dense(), 2),
                                                   rel=1e-15)
        rng = np.random.default_rng(5)
        terms = []
        for _ in range(3):
            w = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
            terms.append(sp.csr_matrix(w + w.conj().T))
        system = AffineFamily(DiscreteOperator(sp.identity(12, format="csr"),
                                               hermitian=True), tuple(terms))
        for t in ((0.3, -0.2, 0.1), (0.3, 0.2j, 0.0)):
            v = system.perturbation(np.asarray(t))
            assert v.norm_bound() >= np.linalg.norm(v.to_dense(), 2)

    def test_samples_potentials_once(self, monkeypatch):
        calls = []
        sample_table = PotentialFamily.sample_table

        def counted(self, grid):
            calls.append(grid)
            return sample_table(self, grid)

        monkeypatch.setattr(PotentialFamily, "sample_table", counted)
        g = grid_1d(40, 0.0, 4.0)
        system = AffineFamily.from_potentials(build_laplacian(g), bump_family([1.0, 3.0]))
        for s in np.linspace(0.0, 1.0, 5):
            system(np.array([s, -s]))
            system.perturbation(np.array([s, 0.0]))
        assert len(calls) == 1

    @pytest.mark.parametrize("term", HERMITIAN_CASES, ids=HERMITIAN_IDS)
    def test_is_hermitian_agrees_with_the_subtraction(self, term, monkeypatch):
        # `is_hermitian` and the family (its terms, and V(beta) and H(beta)
        # on H0 = I on its fixed pattern) look up each entry's transpose:
        # none of them subtracts.
        term = sp.csr_matrix(term, dtype=complex)
        expected = subtraction_verdict(term)
        h0 = DiscreteOperator(sp.identity(4, format="csr"), hermitian=True)
        calls = []
        get_h = sp.csr_matrix.getH
        monkeypatch.setattr(sp.csr_matrix, "getH",
                            lambda mat: calls.append(mat) or get_h(mat))
        assert is_hermitian(term) is expected
        system = AffineFamily(h0, (term,))
        assert system.terms_hermitian == (expected,)
        for beta in ((1.0,), (-0.5,), (0.25j,)):
            for layout, op in ((system._layout, system.perturbation(beta)),
                               (system._layout, system(beta))):
                assert layout_verdict(layout, op) is subtraction_verdict(op.matrix)
        assert calls == []

    @pytest.mark.parametrize("kind", ["grid", "matrix", "matrix_hermitian"])
    def test_flag_is_the_exact_test_on_seeded_beta(self, kind):
        if kind == "grid":
            g = Grid(extent=((0.0, 4.0), (0.0, 3.0)), points=(17, 13))
            system = AffineFamily.from_potentials(build_laplacian(g), PotentialFamily([
                PotentialTerm(profile=GaussianBump((cx, cy), 0.4, 1.0),
                              support=SupportSet((Box((cx - 1, cy - 1), (cx + 1, cy + 1)),)))
                for cx, cy in ((1.0, 1.0), (2.0, 1.5), (3.5, 2.0))]))
        else:
            system = matrix_family()
            if kind == "matrix_hermitian":
                system = AffineFamily(system.h0, system.terms[:3])
        n = len(system.terms)
        rng = np.random.default_rng(29)
        for _ in range(12):
            real = rng.standard_normal(n) * (rng.random(n) < 0.8)
            for beta in (real, real + 1j * rng.standard_normal(n) * (rng.random(n) < 0.5)):
                asked = all(h for b, h in zip(beta, system.terms_hermitian)
                            if b != 0) and not np.any(np.imag(beta))
                for layout, op, base in ((system._layout, system(beta), system.h0.hermitian),
                                         (system._layout, system.perturbation(beta), True)):
                    exact = is_hermitian(op.matrix)
                    assert layout_verdict(layout, op) is exact
                    assert op.hermitian is (asked and base)
                    assert exact or not op.hermitian

    def test_non_finite_flagged_entries_raise(self):
        g = grid_1d(40, 0.0, 4.0)
        system = AffineFamily.from_potentials(build_laplacian(g), bump_family([1.0, 3.0]))
        with pytest.raises(LatticeError, match="not Hermitian"):
            system(np.array([np.nan, 0.5]))
        with pytest.raises(LatticeError, match="not Hermitian"):
            system.perturbation(np.array([0.5, np.nan]))
        big = AffineFamily(DiscreteOperator(sp.identity(4, format="csr"), hermitian=True),
                           (sp.csr_matrix(([1e308, 1e308], [2, 1], [0, 0, 1, 2, 2]),
                                          shape=(4, 4)),))
        assert big((1.0,)).hermitian
        with pytest.raises(LatticeError, match="not Hermitian"):
            big((10.0,))
        # A complex coupling asks for no flag, so nothing is tested.
        assert not big((10.0 + 0.5j,)).hermitian
        # -0.0 couplings are skipped like 0.0, and a -0.0 imaginary part is real.
        for beta in ((-0.0, 0.5), (0.5 - 0.0j, complex(-0.0, -0.0))):
            assert system(np.array(beta)).hermitian
            assert system.perturbation(np.array(beta)).hermitian

    def test_one_csr_and_no_subtraction_per_call(self, monkeypatch):
        g = grid_1d(40, 0.0, 4.0)
        system = AffineFamily.from_potentials(build_laplacian(g), bump_family([1.0, 3.0]))
        built, transposed = [], []
        init, get_h = sp.csr_matrix.__init__, sp.csr_matrix.getH
        monkeypatch.setattr(sp.csr_matrix, "__init__",
                            lambda mat, *a, **k: built.append(1) or init(mat, *a, **k))
        monkeypatch.setattr(sp.csr_matrix, "getH",
                            lambda mat: transposed.append(1) or get_h(mat))
        for beta in (np.array([0.5, -1.5]), np.array([0.5, 0.25j])):
            for make in (system, system.perturbation):
                built.clear()
                op = make(beta)
                # A shallow copy of the layout's prototype: no constructor.
                assert len(built) == 0
                assert op.hermitian is not np.iscomplex(beta).any()
        assert not transposed

    def test_index_arrays_are_shared_and_read_only(self):
        g = grid_1d(40, 0.0, 4.0)
        system = AffineFamily.from_potentials(build_laplacian(g), bump_family([1.0, 3.0]))
        ops = [make(beta) for make in (system, system.perturbation)
               for beta in (np.array([0.5, -1.5]), np.array([0.5, -1.5]), np.array([0.5, 0.25j]))]
        for op in ops:
            for name in ("indices", "indptr"):
                with pytest.raises(ValueError):
                    getattr(op.matrix, name)[0] = 1
        # Each H(beta) carries its own data, even for a repeated beta.
        for i, op in enumerate(ops):
            for other in ops[i + 1:]:
                assert not np.shares_memory(op.matrix.data, other.matrix.data)
        op = system(np.array([0.5, -1.5]))
        before = system(np.array([0.5, -1.5])).matrix.toarray()
        op.matrix.data[:] = 0
        assert np.array_equal(system(np.array([0.5, -1.5])).matrix.toarray(), before)

    def test_zero_coupled_non_hermitian_term_keeps_the_flag(self):
        # H(0) is exactly H0, so it keeps H0's flag; a nonzero coupling to
        # the non-Hermitian term drops it.
        h0 = DiscreteOperator(sp.diags([0.0, 1.0], format="csr"), hermitian=True)
        system = AffineFamily(h0, (sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])),))
        assert h0.hermitian and system.terms_hermitian == (False,)
        for beta in (np.zeros(1), np.array([-0.0]), np.zeros(0)):
            assert system(beta).hermitian
            assert system.perturbation(beta).hermitian
        assert not system(np.array([0.1])).hermitian
        assert not system.perturbation(np.array([0.1])).hermitian

    def test_non_finite_sample_raises(self):
        # The spike is centred on the node 2.0, where it samples +inf.
        g = grid_1d(41, 0.0, 4.0)
        spike = PotentialFamily([bump_family([1.0]).terms[0], PotentialTerm(
            profile=PowerSpike((2.0,), 0.5), center=(2.0,))])
        with pytest.raises(LatticeError, match="non-finite potential sample"):
            AffineFamily.from_potentials(build_laplacian(g), spike)

    def test_from_potentials_needs_a_grid(self):
        h0 = build_laplacian(grid_1d())
        gridless = DiscreteOperator(h0.matrix, hermitian=True)
        with pytest.raises(GridMismatchError):
            AffineFamily.from_potentials(gridless, bump_family([0.5]))

    def test_rejects_wrong_sample_length(self):
        # H0's grid has one node more than H0 has rows: each sample would be
        # one value too long.
        g = grid_1d()
        short = build_laplacian(grid_1d(g.points[0] - 1))
        h0 = DiscreteOperator(short.matrix, hermitian=True, grid=g)
        with pytest.raises(GridMismatchError, match="values on a"):
            AffineFamily.from_potentials(h0, bump_family([0.5]))


def sequential_sum(system, beta, perturbation=False):
    """Oracle: H(beta), or V(beta), as the sparse sum H0 + beta_1 V_1 + ...
    formed one term at a time with zero couplings skipped, and its flag:
    set when the base is flagged and every term it adds is real-coupled
    and Hermitian."""
    if perturbation:
        mat, hermitian = sp.csr_matrix(system.h0.matrix.shape, dtype=complex), True
    else:
        mat, hermitian = system.h0.matrix.copy(), system.h0.hermitian
    for b, op in zip(beta, system.terms):
        if b != 0:
            mat = mat + complex(b) * op
            hermitian = hermitian and complex(b).imag == 0 and is_hermitian(op)
    return mat, hermitian


def bits(mat):
    """The dense array's float view, as integers: equal only bit for bit."""
    return np.ascontiguousarray(mat.toarray()).view(np.float64).view(np.uint64)


def matrix_family():
    """A 9 x 9 complex Hermitian H0 (tridiagonal plus a corner pair) and four
    terms: a complex Hermitian pair outside H0's band, a real diagonal, one
    that cancels an H0 pair at coupling 1, and a non-Hermitian one."""
    rng = np.random.default_rng(11)
    d = 9
    off = rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1)
    h0 = (np.diag(rng.standard_normal(d)) + np.diag(off, 1) + np.diag(off.conj(), -1))
    h0[0, 2], h0[2, 0] = 0.5 - 0.25j, 0.5 + 0.25j
    wide = np.zeros((d, d), dtype=complex)
    wide[1, 6], wide[6, 1] = 0.3 + 1.7j, 0.3 - 1.7j
    cancel = np.zeros((d, d), dtype=complex)
    cancel[3, 4], cancel[4, 3] = -h0[3, 4], -h0[4, 3]
    skew = np.zeros((d, d), dtype=complex)
    skew[0, 5] = 2.0 - 1j
    terms = (sp.csr_matrix(wide), sp.diags(rng.standard_normal(d), format="csr"),
             sp.csr_matrix(cancel), sp.csr_matrix(skew))
    return AffineFamily(DiscreteOperator(sp.csr_matrix(h0), hermitian=True), terms)


class TestFixedPattern:
    """H(beta) and V(beta) on the pattern fixed at construction, against the
    sequential sparse sum they replaced."""

    @pytest.mark.parametrize("beta", [
        (0.7, -1.3, 1.0, 0.0),
        (0.0, -1.3, 1.0),
        (0.7, 0.0, 0.0, 0.0),
        (0.7 + 0.2j, -1.3, 1.0, 0.0),
        (0.0, 0.25j, 0.0, 0.0),
        (0.7, -1.3, 1.0, 1e-3),
        (-0.5,),
        (0.0, 0.0, 0.0, 0.0),
        (),
    ])
    def test_matrix_family_bits_and_flag(self, beta):
        system = matrix_family()
        for perturbation in (False, True):
            oracle, hermitian = sequential_sum(system, beta, perturbation)
            op = system.perturbation(beta) if perturbation else system(beta)
            assert np.array_equal(bits(op.matrix), bits(oracle))
            assert op.hermitian is hermitian
        # Stored zeros (a cancelled pair, a zero-coupled wide term) leave the
        # band of H(beta) as narrow as the sum's.
        oracle, _ = sequential_sum(system, beta)
        ab, kl, ku = analytic._band_storage(system(beta).matrix, 9)
        ab_sum, kl_sum, ku_sum = analytic._band_storage(oracle, 9)
        assert (kl, ku) == (kl_sum, ku_sum)
        assert np.array_equal(ab, ab_sum)

    def test_grid_family_bits_and_diags_terms(self):
        g = Grid(extent=((0.0, 4.0), (0.0, 3.0)), points=(17, 13))
        fam = PotentialFamily([
            PotentialTerm(profile=GaussianBump((cx, cy), 0.4, 1.0),
                          support=SupportSet((Box((cx - 1, cy - 1), (cx + 1, cy + 1)),)))
            for cx, cy in ((1.0, 1.0), (2.0, 1.5), (3.5, 2.0))])
        system = AffineFamily.from_potentials(build_laplacian(g), fam)
        for term, sample in zip(system.terms, fam.sample_on(g)):
            oracle = sp.diags(np.asarray(sample, dtype=complex), format="csr")
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(term, name), getattr(oracle, name))
        for beta in ((0.5, -1.25, 2.0), (0.5, 0.0, 2j), (0.0, 0.0, 1e-300)):
            for perturbation in (False, True):
                oracle, hermitian = sequential_sum(system, beta, perturbation)
                op = system.perturbation(beta) if perturbation else system(beta)
                assert np.array_equal(bits(op.matrix), bits(oracle))
                assert op.hermitian is hermitian

    def test_terms_must_match_h0(self):
        h0 = DiscreteOperator(sp.identity(4, format="csr"), hermitian=True)
        with pytest.raises(LatticeError, match="term 0 has shape"):
            AffineFamily(h0, (sp.identity(5, format="csr"),))


class TestGraphNorm:
    def test_zero(self):
        h0 = build_laplacian(grid_1d())
        assert graph_norm(h0, np.zeros(h0.dim)) == 0.0

    def test_eigenvector(self):
        h0 = build_laplacian(grid_1d(20))
        vals, vecs = np.linalg.eigh(h0.to_dense())
        psi = vecs[:, 0]
        assert graph_norm(h0, psi) == pytest.approx(1 + abs(vals[0]), rel=1e-12)

    def test_random_vector_dense_oracle(self):
        rng = np.random.default_rng(0)
        h0 = build_laplacian(grid_1d(15))
        psi = rng.standard_normal(h0.dim) + 1j * rng.standard_normal(h0.dim)
        oracle = np.linalg.norm(psi) + np.linalg.norm(h0.to_dense() @ psi)
        assert graph_norm(h0, psi) == pytest.approx(oracle, rel=1e-12)


class TestCouplingSeq:
    def test_computed_norm_inf(self):
        beta = CouplingSeq((1.0, -2.0, 0.5))
        assert beta.norm() == 2.0
        assert beta.declared_norm == 2.0

    def test_declared_must_dominate(self):
        CouplingSeq((1.0, 1.0), p=2, declared_norm=2.0)  # fine, truncation
        with pytest.raises(LatticeError):
            CouplingSeq((1.0, 1.0), p=2, declared_norm=1.0)

    def test_invalid_p(self):
        with pytest.raises(LatticeError):
            CouplingSeq((1.0,), p=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.1, np.nan),
                                     complex(np.inf, 0.0)])
    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_non_finite_coupling_rejected(self, bad, p):
        # A NaN never exceeds a declared norm, so only this check stops it.
        with pytest.raises(LatticeError, match="non-finite coupling"):
            CouplingSeq((bad, 1.0), p=p)
        with pytest.raises(LatticeError, match="non-finite coupling"):
            CouplingSeq((1.0, bad), p=p, declared_norm=10.0)

    @pytest.mark.parametrize("declared", [np.nan, np.inf])
    def test_non_finite_declared_norm_rejected(self, declared):
        with pytest.raises(LatticeError, match="declared norm"):
            CouplingSeq((1.0, 0.5), declared_norm=declared)

    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=6),
        st.sampled_from([1.0, 2.0, np.inf]),
    )
    @settings(max_examples=50, deadline=None)
    def test_norm_matches_numpy(self, values, p):
        beta = CouplingSeq(tuple(values), p=p)
        oracle = np.linalg.norm(np.asarray(values), ord=p if np.isfinite(p) else np.inf)
        assert beta.norm() == pytest.approx(float(oracle), abs=1e-12)

"""Relative-bound estimation and resolvent certification."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from specpert.bounds import (
    CertificationError,
    RelativeBound,
    SpectrumBox,
    estimate_relative_bound,
    find_resolvent_point,
    kato_stability_check,
    resolvent_margin,
    uniform_sum_norm_bound,
)
from specpert.geometry import interval_set
from specpert.lattice import DiscreteOperator, Grid, build_laplacian
from specpert.potentials import ConstantProfile, GaussianBump, PotentialFamily, PotentialTerm


def grid_1d(n=64, a=0.0, b=4.0):
    return Grid(extent=((a, b),), points=(n,))


def diag_op(values, grid=None):
    return DiscreteOperator(sp.diags(np.asarray(values, dtype=complex), format="csr"),
                            hermitian=bool(np.isrealobj(np.asarray(values))),
                            grid=grid)


class TestEstimateRelativeBound:
    def test_zero_perturbation(self):
        h0 = build_laplacian(grid_1d())
        V = diag_op(np.zeros(h0.dim))
        rb = estimate_relative_bound(V, h0, probes=32, seed=1)
        assert rb.a == 0.0
        assert rb.b == 0.0

    def test_scalar_multiple_of_identity(self):
        c = -3.2
        h0 = build_laplacian(grid_1d())
        V = diag_op(np.full(h0.dim, c))
        rb = estimate_relative_bound(V, h0, probes=32, seed=1, b_cap=abs(c) + 1e-9)
        assert rb.a == 0.0
        assert rb.b == pytest.approx(abs(c), abs=1e-10)

    def test_bounded_potential_dense_oracle(self):
        h0 = build_laplacian(grid_1d(48))
        nodes = h0.grid.nodes()
        v = np.exp(-((nodes[:, 0] - 2.0) ** 2))
        V = diag_op(v)
        a_grid = [0.0, 1e-3, 1e-2, 0.1, 1.0]
        rb = estimate_relative_bound(V, h0, probes=48, a_grid=a_grid, seed=3)
        # b(a) <= ||V||_inf is always admissible, so the smallest grid a wins.
        assert rb.a == 0.0
        assert rb.b <= float(np.abs(v).max()) + 1e-12
        # Dense oracle: re-check the inequality on fresh dense probes.
        rng = np.random.default_rng(11)
        dense_h0 = h0.to_dense()
        dense_v = np.diag(v)
        for _ in range(20):
            psi = rng.standard_normal(h0.dim) + 1j * rng.standard_normal(h0.dim)
            lhs = np.linalg.norm(dense_v @ psi)
            rhs = rb.a * np.linalg.norm(dense_h0 @ psi) + rb.b * np.linalg.norm(psi)
            assert lhs <= rhs + 1e-9

    def test_a_refinement_decreases_b(self):
        h0 = build_laplacian(grid_1d(48))
        v = np.ones(h0.dim)
        V = diag_op(v)
        rb = estimate_relative_bound(V, h0, probes=40, seed=5)
        curve = dict(rb.tradeoff)
        bs = [curve[a] for a in sorted(curve)]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bs, bs[1:]))

    def test_eigsh_probes_repeat(self):
        # d = 576 > 400 takes the ARPACK branch; the square grid's Laplacian
        # has degenerate eigenvalues, so unseeded start vectors pick
        # different eigenvectors, and different bounds, from call to call.
        h0 = build_laplacian(Grid(extent=((0.0, 12.0), (0.0, 12.0)), points=(24, 24)))
        V = diag_op(np.random.default_rng(3).uniform(-1.0, 1.0, h0.dim))
        first = estimate_relative_bound(V, h0, probes=48, seed=3)
        second = estimate_relative_bound(V, h0, probes=48, seed=3)
        assert (first.a, first.b) == (second.a, second.b)
        assert first.tradeoff == second.tradeoff

    def test_requires_enough_probes(self):
        h0 = build_laplacian(grid_1d())
        with pytest.raises(ValueError):
            estimate_relative_bound(diag_op(np.zeros(h0.dim)), h0, probes=8)


class TestUniformSumNormBound:
    def _plateau(self, lo, hi, v):
        return PotentialTerm(profile=ConstantProfile(v), support=interval_set(lo, hi))

    def test_single_term(self):
        g = grid_1d(81, -1.0, 3.0)
        v = 2.0
        fam = PotentialFamily([self._plateau(0.0, 1.0, v)])
        assert uniform_sum_norm_bound(fam, g) == pytest.approx(v)

    def test_ten_disjoint_terms(self):
        g = grid_1d(401, -1.0, 40.0)
        v = 1.5
        fam = PotentialFamily([self._plateau(4 * i, 4 * i + 1, v) for i in range(10)])
        assert fam.n0 == 0
        assert uniform_sum_norm_bound(fam, g) == pytest.approx(v)

    def test_chain_dense_diagonal_oracle(self):
        g = grid_1d(801, -1.0, 9.0)
        v = 1.0
        fam = PotentialFamily(
            [self._plateau(1.5 * i, 1.5 * i + 2.0, v) for i in range(4)]
        )
        assert fam.n0 == 2
        bound = uniform_sum_norm_bound(fam, g)
        assert bound == pytest.approx(2 * v)
        dense = np.abs(sum(t.evaluate(g.nodes()) for t in fam.terms)).max()
        assert float(dense) <= bound + 1e-8

    def test_unbounded_family_rejected(self):
        from specpert.potentials import PowerSpike

        g = grid_1d()
        fam = PotentialFamily([
            PotentialTerm(profile=PowerSpike((0.5,), 0.5),
                          support=interval_set(0.0, 1.0))
        ])
        with pytest.raises(ValueError):
            uniform_sum_norm_bound(fam, g)


class TestKatoStability:
    def test_values(self):
        assert kato_stability_check(RelativeBound(0.0, 5.0))
        assert not kato_stability_check(RelativeBound(1.0, 0.0))
        assert kato_stability_check(RelativeBound(0.3, 100.0))


class TestResolventMargin:
    def test_trivial_bound(self):
        box = SpectrumBox(0.0, 1.0)
        rb = RelativeBound(0.0, 0.0)
        assert resolvent_margin(rb, box, 5j) == pytest.approx(1.0)
        assert resolvent_margin(rb, box, -3.0 + 0j) == pytest.approx(1.0)

    def test_closed_form_vs_dense_grid_oracle(self):
        box = SpectrumBox(0.0, 1.0)
        rb = RelativeBound(0.1, 0.1)
        lam = 10j
        margin = resolvent_margin(rb, box, lam)
        E = np.linspace(box.E_min, box.E_max, 200_001)
        sup_inv = (1.0 / np.abs(E - lam)).max()
        sup_weighted = (np.abs(E) / np.abs(E - lam)).max()
        oracle = 1.0 - (rb.b * sup_inv + rb.a * sup_weighted)
        assert margin == pytest.approx(oracle, abs=1e-9)
        assert margin > 0

    def test_random_shifts_vs_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            box = SpectrumBox(rng.uniform(-3, 0), rng.uniform(0.5, 4))
            rb = RelativeBound(rng.uniform(0, 0.5), rng.uniform(0, 2))
            lam = complex(rng.uniform(-5, 5), rng.uniform(0.2, 5))
            margin = resolvent_margin(rb, box, lam)
            E = np.linspace(box.E_min, box.E_max, 400_001)
            oracle = 1.0 - (
                rb.b * (1.0 / np.abs(E - lam)).max()
                + rb.a * (np.abs(E) / np.abs(E - lam)).max()
            )
            assert margin == pytest.approx(oracle, abs=1e-6)

    def test_divergence_approaching_spectrum(self):
        box = SpectrumBox(0.0, 1.0)
        rb = RelativeBound(0.0, 0.5)
        margins = [
            resolvent_margin(rb, box, complex(1.0 + eps, 0.0))
            for eps in (0.5, 0.1, 0.01, 0.001)
        ]
        assert all(m2 < m1 for m1, m2 in zip(margins, margins[1:]))
        assert margins[-1] < -100

    def test_real_shift_inside_box_rejected(self):
        with pytest.raises(CertificationError):
            resolvent_margin(RelativeBound(0.0, 0.1), SpectrumBox(0.0, 1.0), 0.5 + 0j)


class TestFindResolventPoint:
    def test_trivial_returns_first_grid_point(self):
        lam = find_resolvent_point(RelativeBound(0.0, 0.0), SpectrumBox(0.0, 1.0),
                                   y_min=1e-3)
        assert lam == 1e-3j

    def test_self_consistency(self):
        rb = RelativeBound(0.05, 0.3)
        box = SpectrumBox(-1.0, 1.0)
        lam = find_resolvent_point(rb, box)
        assert resolvent_margin(rb, box, lam) > 0

    def test_a_geq_one_unbounded_box_fails(self):
        rb = RelativeBound(1.0, 0.0)
        box = SpectrumBox(0.0, math.inf)
        with pytest.raises(CertificationError):
            find_resolvent_point(rb, box)

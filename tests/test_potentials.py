"""Potentials: Stummel norms, weighted-sum bounds, tail sums."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from specpert.geometry import interval_set
from specpert.lattice import CouplingSeq, Grid
from specpert.potentials import (
    ConstantProfile,
    GaussianBump,
    PotentialFamily,
    PotentialTerm,
    PowerSpike,
    StummelDivergenceError,
    StummelParams,
    TailDivergenceError,
    direct_sum_stummel_norm,
    direct_tail_sum,
    esssup_sum_norm,
    make_probe_grid,
    stummel_class_norm,
    stummel_local_norm,
    tail_sum_bound,
    unit_ball_volume,
    weighted_sum_stummel_bound,
)


def bump_term(center, width=0.4, height=1.0, half=1.2):
    m = len(center)
    lo = tuple(c - half for c in center)
    hi = tuple(c + half for c in center)
    from specpert.geometry import Box, SupportSet

    return PotentialTerm(
        profile=GaussianBump(tuple(center), width, height),
        support=SupportSet((Box(lo, hi),)),
        center=tuple(center),
    )


class TestLocalNorm:
    def test_zero_potential(self):
        params = StummelParams(rho=1.5, m=1)
        v = lambda pts: np.zeros(len(pts))
        assert stummel_local_norm(v, [0.0], params) == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_constant_rho_geq_m(self, m):
        params = StummelParams(rho=m + 0.5, m=m)
        v = lambda pts: np.ones(len(pts))
        oracle = math.sqrt(unit_ball_volume(m))
        assert stummel_local_norm(v, [0.0] * m, params) == pytest.approx(
            oracle, rel=1e-10
        )

    @pytest.mark.parametrize("m,rho", [(1, 0.5), (2, 1.5), (3, 2.5), (3, 0.5)])
    def test_constant_rho_below_m(self, m, rho):
        params = StummelParams(rho=rho, m=m)
        v = lambda pts: np.ones(len(pts))
        # Radial integral of r^(rho-1) is 1/rho; surface area m * c_m.
        oracle = math.sqrt(m * unit_ball_volume(m) / rho)
        assert stummel_local_norm(v, [0.0] * m, params) == pytest.approx(
            oracle, rel=1e-10
        )

    def test_known_closed_forms(self):
        one = lambda pts: np.ones(len(pts))
        assert stummel_local_norm(one, [0.0], StummelParams(rho=1, m=1)) == (
            pytest.approx(math.sqrt(2), rel=1e-10)
        )
        assert stummel_local_norm(one, [0.0] * 3, StummelParams(rho=3, m=3)) == (
            pytest.approx(math.sqrt(4 * math.pi / 3), rel=1e-10)
        )

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(StummelDivergenceError):
            stummel_local_norm(lambda p: np.ones(len(p)), [0.0],
                               StummelParams(rho=-1.0, m=1))

    def test_singular_profile_adaptive_quadrature_oracle(self):
        # v(y) = |y|^(-1/2) on |y| <= 1, m = 3, rho = 2.5 at x = 0:
        # integrand 4 pi r^2 * r^(-1) * r^(-1/2) = 4 pi r^(1/2).
        term = PowerSpike(center=(0.0, 0.0, 0.0), alpha=0.5)
        from specpert.geometry import Box, SupportSet

        support = SupportSet((Box((-1.0,) * 3, (1.0,) * 3),))
        v = PotentialTerm(profile=term, support=support,
                          center=(0.0, 0.0, 0.0)).evaluate
        params = StummelParams(rho=2.5, m=3, quad_order=64)
        got = stummel_local_norm(v, [0.0] * 3, params)
        oracle_sq, _ = integrate.quad(lambda r: 4 * math.pi * math.sqrt(r), 0, 1)
        assert got == pytest.approx(math.sqrt(oracle_sq), rel=1e-4)


class TestClassNorm:
    def test_zero(self):
        params = StummelParams(rho=1.5, m=1, probe_points=np.zeros((1, 1)))
        assert stummel_class_norm(lambda p: np.zeros(len(p)), params) == 0.0

    def test_bump_matches_dense_probe_oracle(self):
        term = bump_term([0.0], width=0.3, height=2.0)
        coarse = make_probe_grid(term.support, margin=1.0, density=41)
        params = StummelParams(rho=0.5, m=1, probe_points=coarse)
        got = stummel_class_norm(term.evaluate, params)
        # Dense oracle: much finer probe maximization.
        fine = make_probe_grid(term.support, margin=1.0, density=401)
        dense_params = StummelParams(rho=0.5, m=1, probe_points=fine)
        oracle = stummel_class_norm(term.evaluate, dense_params)
        assert got == pytest.approx(oracle, rel=1e-3)


class TestWeightedSumBound:
    def test_single_term(self):
        term = bump_term([0.0])
        fam = PotentialFamily([term])
        probes = make_probe_grid(term.support, density=17)
        params = StummelParams(rho=0.5, m=1, probe_points=probes)
        beta = CouplingSeq((1.0,))
        bound = weighted_sum_stummel_bound(fam, beta, params).bound
        M1 = stummel_class_norm(term.evaluate, params)
        assert bound == pytest.approx(M1 * fam.n1(), rel=1e-12)
        assert direct_sum_stummel_norm(fam, beta, params) <= bound + 1e-10

    def test_disjoint_copies_direct_equals_single(self):
        terms = [bump_term([6.0 * i], half=1.0) for i in range(4)]
        fam = PotentialFamily(terms)
        assert fam.n1() == 1
        union_probes = np.concatenate(
            [make_probe_grid(t.support, density=17) for t in terms]
        )
        params = StummelParams(rho=0.5, m=1, probe_points=union_probes)
        beta = CouplingSeq((1.0,) * 4, p=np.inf)
        bound = weighted_sum_stummel_bound(fam, beta, params).bound
        direct = direct_sum_stummel_norm(fam, beta, params)
        M1 = stummel_class_norm(terms[0].evaluate, params)
        assert bound == pytest.approx(M1, rel=1e-9)
        assert direct == pytest.approx(M1, rel=1e-6)

    def test_overlapping_pair(self):
        terms = [bump_term([0.0], half=1.5), bump_term([0.5], half=1.5)]
        fam = PotentialFamily(terms)
        probes = make_probe_grid(terms[0].support, margin=2.5, density=33)
        params = StummelParams(rho=0.5, m=1, probe_points=probes)
        beta = CouplingSeq((1.0, 1.0), p=np.inf)
        direct = direct_sum_stummel_norm(fam, beta, params)
        Ms = [stummel_class_norm(t.evaluate, params) for t in terms]
        assert direct <= 2 * max(Ms) + 1e-10


class TestTailSumBound:
    def test_empty_family(self):
        stub = SimpleNamespace(terms=[], dim=1)
        assert tail_sum_bound(stub, [0.0], A=1.0, l=2) == 0.0

    def _lattice_family(self, count, k, spacing=2.1, C=1.0):
        from specpert.potentials import DecayTail

        terms = [
            PotentialTerm(
                profile=DecayTail((spacing * i,), C, k),
                center=(spacing * i,),
                decay=(C, k),
            )
            for i in range(count)
        ]
        return PotentialFamily(terms)

    def test_1d_lattice_direct_below_bound(self):
        k, A, C, spacing = 2.0, 1.0, 1.0, 2.1
        fam = self._lattice_family(40, k)
        x = np.array([0.05])
        bound = tail_sum_bound(fam, x, A=A, l=2)
        assert np.isfinite(bound)
        # Direct oracle over 1e5 centers (vectorized; the bound is uniform
        # in the number of centers).
        centers = spacing * np.arange(100_000)
        direct = float(np.sum(C / (1.0 + np.abs(centers - x[0])) ** k))
        assert direct <= bound
        # Small-family direct evaluation agrees with the vectorized oracle.
        small = direct_tail_sum(fam, x)
        oracle = float(np.sum(C / (1.0 + np.abs(centers[:40] - x[0])) ** k))
        assert small == pytest.approx(oracle, rel=1e-12)

    def test_k_equals_m_raises(self):
        fam = self._lattice_family(5, k=1.0)
        with pytest.raises(TailDivergenceError):
            tail_sum_bound(fam, [0.0], A=1.0, l=2)

    def test_k_equals_m_3d_raises(self):
        from specpert.potentials import DecayTail

        terms = [
            PotentialTerm(profile=DecayTail((3.0 * i, 0, 0), 1.0, 3.0),
                          center=(3.0 * i, 0, 0), decay=(1.0, 3.0))
            for i in range(3)
        ]
        fam = PotentialFamily(terms)
        with pytest.raises(TailDivergenceError):
            tail_sum_bound(fam, [0.0, 0.0, 0.0], A=1.0, l=2)

    def test_inner_radius_validation(self):
        fam = self._lattice_family(3, k=2.0)
        with pytest.raises(ValueError):
            tail_sum_bound(fam, [0.0], A=1.0, l=1)


class TestEsssupSumNorm:
    def _grid(self, n=201, a=-1.0, b=9.0):
        return Grid(extent=((a, b),), points=(n,))

    def test_zero_beta(self):
        fam = PotentialFamily([bump_term([0.0])])
        assert esssup_sum_norm(fam, CouplingSeq((0.0,)), self._grid()) == 0.0

    def test_disjoint_plateaus_exact(self):
        v = 1.7
        terms = [
            PotentialTerm(profile=ConstantProfile(v), support=interval_set(4 * i, 4 * i + 1))
            for i in range(3)
        ]
        fam = PotentialFamily(terms)
        got = esssup_sum_norm(fam, CouplingSeq((1.0,) * 3), self._grid())
        assert got == pytest.approx(v, abs=0)

    def test_overlap_depth_three(self):
        v = 1.0
        terms = [
            PotentialTerm(profile=ConstantProfile(v), support=interval_set(0.0, 3.0)),
            PotentialTerm(profile=ConstantProfile(v), support=interval_set(1.0, 4.0)),
            PotentialTerm(profile=ConstantProfile(v), support=interval_set(2.0, 5.0)),
        ]
        fam = PotentialFamily(terms)
        grid = self._grid(n=501, a=-1.0, b=6.0)
        got = esssup_sum_norm(fam, CouplingSeq((1.0,) * 3), grid)
        # Dense oracle.
        nodes = grid.nodes()
        dense = np.abs(sum(t.evaluate(nodes) for t in terms)).max()
        assert got == pytest.approx(float(dense), abs=0)
        assert got <= 3 * v + 1e-12


class TestDecayCertificate:
    def test_violated_certificate_rejected(self):
        with pytest.raises(ValueError):
            PotentialTerm(
                profile=ConstantProfile(5.0),
                support=interval_set(-8.0, 8.0),
                center=(0.0,),
                decay=(1.0, 2.0),
            )

"""Potentials: Stummel norms, weighted-sum bounds, tail sums."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from specpert import potentials
from specpert.geometry import Box, SupportSet, boxes_meeting, interval_set
from specpert.lattice import CouplingSeq, Grid
from specpert.potentials import (
    ConstantProfile,
    DecayTail,
    GaussianBump,
    PotentialFamily,
    PotentialTerm,
    PowerSpike,
    StummelDivergenceError,
    StummelError,
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


def unculled_oracles(terms, beta, params):
    """Class norms of each term and of the truncated sum, every term sampled
    at every probe."""
    def summed(pts):
        acc = np.zeros(len(pts), dtype=complex)
        for c, t in zip(beta.values, terms):
            acc += complex(c) * t.evaluate(pts)
        return acc

    return ([stummel_class_norm(t.evaluate, params) for t in terms],
            stummel_class_norm(summed, params))


def tail_term(center, C=1.0, k=2.0):
    return PotentialTerm(profile=DecayTail(tuple(center), C, k), center=tuple(center),
                         decay=(C, k))


def _probe_misses_term():
    terms = [bump_term([0.0]), bump_term([10.0])]
    params = StummelParams(rho=0.5, m=1, probe_points=make_probe_grid(terms[0].support))
    return terms, CouplingSeq((0.5, -1.0)), params


def _three_dim():
    terms = [bump_term([0.0, 0.0, 0.0], half=1.0), bump_term([1.2, 0.4, 0.0], half=0.8),
             bump_term([4.0, 4.0, 4.0], half=0.5)]
    union = SupportSet(tuple(b for t in terms[:2] for b in t.support.boxes))
    params = StummelParams(rho=2.5, m=3, quad_order=8, angular_order=8,
                           probe_points=make_probe_grid(union, density=3))
    return terms, CouplingSeq((1.0, 0.5, 0.25)), params


def _decay_tail():
    terms = [bump_term([0.0]), tail_term([20.0])]
    params = StummelParams(rho=0.5, m=1, probe_points=make_probe_grid(terms[0].support))
    return terms, CouplingSeq((1.0, 2.0)), params


def _fewer_couplings_complex():
    terms = [bump_term([0.0, 0.0], half=1.0), bump_term([2.5, 0.3], half=1.2),
             bump_term([0.2, 6.0], width=0.6, half=0.9), bump_term([-3.0, -3.0])]
    union = SupportSet(tuple(b for t in terms for b in t.support.boxes))
    params = StummelParams(rho=1.5, m=2, quad_order=16,
                           probe_points=make_probe_grid(union, density=6))
    return terms, CouplingSeq((0.3 - 0.4j, 0.5j), p=2), params


def _more_couplings_than_terms():
    # Couplings past the last term are ignored.
    terms, _, params = _fewer_couplings_complex()
    return terms, CouplingSeq((0.3 - 0.4j, 0.5j, 1.0, -2.0, 0.25), p=2), params


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

    def test_one_sweep_equals_separate_norms(self):
        # 2D bumps with overlapping supports, complex couplings in l^2 and
        # one term left without a coupling: the single probe pass must give
        # the same bits as a separate class norm per term and for the sum.
        terms = [bump_term([0.0, 0.0], half=1.0), bump_term([0.8, 0.3], half=1.2),
                 bump_term([0.2, 1.1], width=0.6, half=0.9)]
        fam = PotentialFamily(terms)
        assert fam.n1() >= 2
        beta = CouplingSeq((0.3 - 0.4j, 0.5j), p=2)
        union = SupportSet(tuple(b for t in terms for b in t.support.boxes))
        params = StummelParams(rho=1.5, m=2, quad_order=16,
                               probe_points=make_probe_grid(union, density=5))
        norms, direct = unculled_oracles(terms, beta, params)
        sb = weighted_sum_stummel_bound(fam, beta, params)
        assert sb.norms == tuple(norms)
        assert sb.direct == direct
        assert direct_sum_stummel_norm(fam, beta, params) == sb.direct
        assert sb.bound == beta.declared_norm * fam.n1() * max(sb.norms)

    def test_unsupported_term_meets_every_ball(self):
        # A term without a support adds one to n1 wherever it sits, and the
        # weighted bound then dominates the direct norm of the sum.
        terms, beta, params = _decay_tail()
        fam = PotentialFamily(terms)
        assert PotentialFamily(terms[:1]).n1() == 1
        assert fam.n1() == 2
        assert PotentialFamily([tail_term([20.0]), tail_term([40.0])]).n1() == 2
        sb = weighted_sum_stummel_bound(fam, beta, params)
        assert sb.direct == pytest.approx(1.522, abs=1e-3)
        assert sb.direct <= sb.bound
        assert sb.bound == beta.declared_norm * 2 * max(sb.norms)
        with pytest.raises(ValueError, match="without supports"):
            fam.support_family()

    # The probe pass skips a term at a probe whose node box none of its
    # support boxes meets; the result must be the same bits as sampling
    # every term at every probe.

    @pytest.mark.parametrize("case,missed", [(_probe_misses_term, {1}), (_three_dim, {2}),
                                             (_decay_tail, set()),
                                             (_fewer_couplings_complex, set()),
                                             (_more_couplings_than_terms, set())],
                             ids=["probe_misses_term", "3d", "decay_tail",
                                  "fewer_couplings_complex", "more_couplings_than_terms"])
    def test_equals_unculled_oracles(self, case, missed):
        terms, beta, params = case()
        norms, direct = potentials._family_sweep(PotentialFamily(terms), beta, params)
        assert (norms, direct) == unculled_oracles(terms, beta, params)
        assert direct_sum_stummel_norm(PotentialFamily(terms), beta, params) == direct
        assert {i for i, n in enumerate(norms) if n == 0.0} == missed

    def test_hit_singularity_still_raises(self):
        # A quadrature node lands exactly on the spike's center, which a
        # probe ball reaches; a far bump keeps the family non-trivial.
        offsets, _, _ = potentials._ball_rule(StummelParams(rho=0.5, m=1))
        spike = PotentialTerm(profile=PowerSpike((0.0,), alpha=0.5),
                              support=interval_set(-1.0, 1.0), center=(0.0,))
        terms = [bump_term([10.0]), spike]
        params = StummelParams(rho=0.5, m=1,
                               probe_points=np.array([[10.0], [-offsets[0, 0]]]))
        with pytest.raises(StummelError):
            stummel_class_norm(spike.evaluate, params)
        with pytest.raises(StummelError):
            potentials._family_sweep(PotentialFamily(terms), CouplingSeq((1.0, 1.0)),
                                     params)

    def test_dimension_mismatch_raises(self):
        terms, beta, _ = _probe_misses_term()
        params = StummelParams(rho=1.5, m=2, probe_points=np.zeros((1, 2)))
        with pytest.raises(StummelError, match="dimension"):
            potentials._family_sweep(PotentialFamily(terms), beta, params)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_boxes_touching_node_boxes(self, data):
        m = data.draw(st.sampled_from([1, 2]))
        coord = st.floats(-3.0, 3.0, allow_nan=False)
        probes = np.array(data.draw(st.lists(st.tuples(*[coord] * m), min_size=1,
                                             max_size=3)))
        params = StummelParams(rho=0.5 * m, m=m, quad_order=4, angular_order=8,
                               probe_points=probes)
        offsets, _, _ = potentials._ball_rule(params)
        node_lo = [(x + offsets).min(axis=0) for x in probes]
        node_hi = [(x + offsets).max(axis=0) for x in probes]

        def side(k):
            # One axis of a box: free, or with a face on a face of a node box.
            width = data.draw(st.floats(0.05, 3.0))
            mode = data.draw(st.sampled_from(["free", "below", "above"]))
            j = data.draw(st.integers(0, len(probes) - 1))
            if mode == "below":
                return node_lo[j][k] - width, node_lo[j][k]
            if mode == "above":
                return node_hi[j][k], node_hi[j][k] + width
            lo = data.draw(st.floats(-5.0, 5.0))
            return lo, lo + width

        terms = []
        for _ in range(data.draw(st.integers(1, 4))):
            boxes = []
            for _ in range(data.draw(st.integers(1, 2))):
                lo, hi = zip(*[side(k) for k in range(m)])
                boxes.append(Box(lo, hi))
            value = data.draw(st.sampled_from([1.0, -0.5, 0.25 + 2j]))
            terms.append(PotentialTerm(profile=ConstantProfile(value),
                                       support=SupportSet(tuple(boxes))))
        if data.draw(st.booleans()):
            terms.append(tail_term([1.0] * m))
        n_beta = data.draw(st.integers(1, len(terms)))
        beta = CouplingSeq(tuple(data.draw(st.sampled_from([1.0, -0.3, 0.2 + 0.7j]))
                                 for _ in range(n_beta)))
        got = potentials._family_sweep(PotentialFamily(terms), beta, params)
        assert got == tuple(unculled_oracles(terms, beta, params))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_reach_table_is_each_probes_node_box(self, monkeypatch, m):
        # Boxes with a face on a face of a probe's node box, from below and
        # from above on each axis, and one box far away.  The terms the
        # sweep samples at each probe (its row of the reach table, built from
        # x + min and x + max of the offsets) must be those whose boxes meet
        # the bounding box of that probe's own nodes, as `boxes_meeting`
        # gives per probe.
        rng = np.random.default_rng(m)
        params = StummelParams(rho=0.5 * m, m=m, quad_order=6, angular_order=8,
                               probe_points=rng.uniform(-2.0, 2.0, size=(5, m)))
        offsets, _, _ = potentials._ball_rule(params)
        node_boxes = [((x + offsets).min(axis=0), (x + offsets).max(axis=0))
                      for x in params.probe_points]
        terms = []
        for lo, hi in node_boxes[:2]:
            for k in range(m):
                for face, far in ((lo[k], lo[k] - 0.5), (hi[k], hi[k] + 0.5)):
                    box_lo, box_hi = list(lo), list(hi)
                    box_lo[k], box_hi[k] = min(face, far), max(face, far)
                    box = Box(tuple(box_lo), tuple(box_hi))
                    terms.append(PotentialTerm(profile=ConstantProfile(1.0 + k - 2j * (far > face)),
                                               support=SupportSet((box,))))
        terms.append(bump_term([40.0] * m))
        family = PotentialFamily(terms)
        table = family._term_table
        oracle = [np.flatnonzero(boxes_meeting(table.box_lo, table.box_hi, lo, hi).any(-1))
                  .tolist() for lo, hi in node_boxes]
        # The first two probes touch every box built on them.
        assert all(set(range(2 * m * j, 2 * m * (j + 1))) <= set(oracle[j]) for j in (0, 1))
        sampled = []
        sample = potentials._sample_terms

        def recorded(table, terms, pts):
            sampled.append(np.ravel(terms).tolist())
            return sample(table, terms, pts)

        monkeypatch.setattr(potentials, "_sample_terms", recorded)
        beta = CouplingSeq((0.5, -1.0, 0.25j))
        got = potentials._family_sweep(family, beta, params)
        assert sampled == oracle
        monkeypatch.setattr(potentials, "_sample_terms", sample)
        assert got == tuple(unculled_oracles(terms, beta, params))


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


class TestSampleOn:
    @pytest.mark.parametrize("grid", [
        Grid(extent=((-1.0, 4.0),), points=(41,)),
        Grid(extent=((0.0, 3.0), (-1.0, 2.0)), points=(13, 10)),
        Grid(extent=((0.0, 2.0),) * 3, points=(5, 6, 7)),
    ], ids=["1d", "2d", "3d"])
    def test_equals_evaluation_at_every_node(self, grid):
        # Sampling inside the supports only gives the same bits and dtype as
        # evaluating each term at every node.
        m = grid.dim
        c, lo, hi = (1.0,) * m, (0.5,) * m, (1.5,) * m
        terms = [
            bump_term(c, half=0.5),
            PotentialTerm(profile=GaussianBump(c, 0.3, -2.0),
                          support=SupportSet((Box(lo, hi), Box((-9.0,) * m, (0.25,) * m)))),
            PotentialTerm(profile=ConstantProfile(1.5 - 0.5j), support=SupportSet((Box(lo, hi),))),
            # Infinite at its centre, which lies outside its support.
            PotentialTerm(profile=PowerSpike((0.0,) * m, 0.5), support=SupportSet((Box(lo, hi),))),
            PotentialTerm(profile=DecayTail(c, 1.0, 2.0), center=c),
            PotentialTerm(profile=GaussianBump(c, 0.3), support=SupportSet((Box((8.0,) * m,
                                                                                (9.0,) * m),))),
        ]
        nodes = grid.nodes()
        for sample, t in zip(PotentialFamily(terms).sample_on(grid), terms):
            full = t.evaluate(nodes)
            assert sample.dtype == full.dtype
            assert np.array_equal(sample.view(np.uint64), full.view(np.uint64))


def mixed_terms(m):
    """All four profile kinds in m dimensions: multi-box supports that
    overlap, terms without a support, a complex constant, and a spike whose
    center is a node but lies outside its support."""
    c, lo, hi = (1.0,) * m, (0.5,) * m, (1.5,) * m
    return [
        bump_term(c, half=0.5),
        PotentialTerm(profile=GaussianBump(c, 0.3, -2.0),
                      support=SupportSet((Box(lo, hi), Box((-9.0,) * m, (0.75,) * m)))),
        PotentialTerm(profile=ConstantProfile(1.5 - 0.5j),
                      support=SupportSet((Box(lo, hi), Box((1.0,) * m, (2.0,) * m)))),
        PotentialTerm(profile=PowerSpike((0.0,) * m, 0.5), support=SupportSet((Box(lo, hi),))),
        PotentialTerm(profile=PowerSpike((0.25,) * m, 1.0, 2.0),
                      support=SupportSet((Box(lo, hi),))),
        PotentialTerm(profile=DecayTail(c, 1.0, 2.0), center=c),
        PotentialTerm(profile=DecayTail((0.5,) * m, 2.0, 3.5), center=(0.5,) * m),
        PotentialTerm(profile=ConstantProfile(-0.75), support=SupportSet((Box(lo, hi),))),
    ]


def face_points(m, rng):
    """Random points, and points on the faces and corners of the boxes of
    `mixed_terms` (every coordinate one of their face values)."""
    faces = np.array([-9.0, 0.5, 0.75, 1.0, 1.5, 2.0, 0.1, 1.7])
    on_faces = rng.choice(faces, size=(60, m))
    return np.concatenate((on_faces, rng.uniform(-1.0, 2.5, size=(60, m))))


def bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


class TestSampleTerms:
    """The batched term kernel against per-term `PotentialTerm.evaluate`."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_every_term_at_every_point_is_evaluate(self, m):
        terms = mixed_terms(m)
        pts = face_points(m, np.random.default_rng(m))
        table = PotentialFamily(terms)._term_table
        got = potentials._sample_terms(table, np.arange(len(terms))[:, None], pts)
        assert got.shape == (len(terms), len(pts))
        for row, t in zip(got, terms):
            assert np.array_equal(bits(row), bits(t.evaluate(pts)))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_pairs_are_evaluate(self, m):
        terms = mixed_terms(m)
        rng = np.random.default_rng(10 + m)
        pts = face_points(m, rng)
        which = rng.integers(0, len(terms), size=len(pts))
        got = potentials._sample_terms(PotentialFamily(terms)._term_table, which, pts)
        want = [terms[i].evaluate(x)[0] for i, x in zip(which, pts)]
        assert np.array_equal(bits(got), bits(np.array(want)))

    def test_single_kind_family_stays_real(self):
        terms = [bump_term([0.0, 0.0]), bump_term([1.0, 0.5], width=0.2)]
        got = potentials._sample_terms(PotentialFamily(terms)._term_table,
                                       np.arange(2)[:, None], np.zeros((3, 2)))
        assert got.dtype == np.float64

    def test_nan_sample_raises(self):
        nan = PotentialTerm(profile=ConstantProfile(complex(1.0, np.nan)),
                            support=interval_set(0.0, 1.0))
        family = PotentialFamily([bump_term([0.5]), nan])
        grid = Grid(extent=((0.0, 2.0),), points=(9,))
        with pytest.raises(ValueError, match="non-finite potential sample"):
            nan.evaluate(grid.nodes())
        with pytest.raises(ValueError, match="non-finite potential sample"):
            family.sample_on(grid)
        with pytest.raises(ValueError, match="non-finite potential sample"):
            potentials._sample_terms(family._term_table, np.array([[1]]), grid.nodes())
        # Outside the support the NaN is never sampled.
        far = PotentialFamily([bump_term([0.5]), PotentialTerm(
            profile=ConstantProfile(np.nan), support=interval_set(5.0, 6.0))])
        assert not far.sample_on(grid)[1].any()

    @pytest.mark.parametrize("m", [1, 2])
    def test_sample_table_nodes_once_and_ascending(self, m):
        grid = Grid(extent=((0.0, 2.0),) * m, points=(9,) * m)
        terms = mixed_terms(m)
        ptr, nodes, values = PotentialFamily(terms).sample_table(grid)
        everything = grid.nodes()
        for i, t in enumerate(terms):
            mine = nodes[ptr[i]:ptr[i + 1]]
            assert np.all(np.diff(mine) > 0)
            inside = (np.ones(grid.size, dtype=bool) if t.support is None
                      else t.support.contains_points(everything))
            assert np.array_equal(mine, np.flatnonzero(inside))
            assert np.array_equal(bits(values[ptr[i]:ptr[i + 1]]),
                                  bits(t.evaluate(everything[mine])))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sweep_of_mixed_family_is_per_term_maxima(self, m):
        # The spike centred at 0 is singular at a node only if a probe puts
        # one there; these probes do not.
        terms = mixed_terms(m)
        union = SupportSet(tuple(b for t in terms if t.support for b in t.support.boxes))
        params = StummelParams(rho=m + 0.5, m=m, quad_order=8, angular_order=8,
                               probe_points=make_probe_grid(union, density=4) + 0.013)
        beta = CouplingSeq((0.5, -1.0, 0.25j, 0.1, 0.2, -0.3))
        norms, direct = potentials._family_sweep(PotentialFamily(terms), beta, params)
        want = [max(stummel_local_norm(t.evaluate, x, params) for x in params.probe_points)
                for t in terms]
        assert norms == want
        assert (norms, direct) == unculled_oracles(terms, beta, params)


class TestGaussianWidth:
    @pytest.mark.parametrize("width", [0.0, -0.5, math.inf, math.nan])
    def test_degenerate_width_rejected(self, width):
        with pytest.raises(ValueError, match="width must be finite and > 0"):
            GaussianBump((1.05,), width, 1.0)

    @pytest.mark.parametrize("center,height", [((math.nan,), 1.0), ((1.0,), math.inf),
                                               ((1.0,), math.nan)])
    def test_non_finite_center_or_height_rejected(self, center, height):
        with pytest.raises(ValueError, match="must be finite"):
            GaussianBump(center, 0.5, height)


class TestDecayCertificate:
    def test_tail_slower_than_declared_rejected(self):
        # C / (1 + r)^2 declared as decaying like C / (1 + r)^3: equal at the
        # center, broken away from it, within the spot-check reach.
        tail = potentials.DecayTail((0.0, 0.0), 1.0, 2.0)
        with pytest.raises(ValueError, match="decay certificate violated"):
            PotentialTerm(profile=tail, center=(0.0, 0.0), decay=(1.0, 3.0))
        PotentialTerm(profile=tail, center=(0.0, 0.0), decay=(1.0, 2.0))

    def test_support_corner_is_the_center_without_one(self):
        # No center: the envelope is centred at the support's lower corner.
        box = SupportSet((Box((1.0,), (3.0,)),))
        PotentialTerm(profile=potentials.DecayTail((1.0,), 1.0, 2.0), support=box,
                      decay=(1.0, 2.0))
        with pytest.raises(ValueError, match="decay certificate violated"):
            PotentialTerm(profile=potentials.DecayTail((2.0,), 1.0, 2.0), support=box,
                          decay=(1.0, 2.0))

    def test_violated_certificate_rejected(self):
        with pytest.raises(ValueError):
            PotentialTerm(
                profile=ConstantProfile(5.0),
                support=interval_set(-8.0, 8.0),
                center=(0.0,),
                decay=(1.0, 2.0),
            )

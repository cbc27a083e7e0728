"""Relative bounds, uniform sum-norm bounds and resolvent certification."""

import math

import numpy as np
import pytest

from specpert.bounds import (
    CertificationError,
    RelativeBound,
    SpectrumBox,
    _overlap_depth,
    find_resolvent_point,
    resolvent_margin,
    uniform_sum_norm_bound,
)
from specpert.geometry import Box, SupportSet, interval_set
from specpert.lattice import Grid
from specpert.potentials import ConstantProfile, PotentialFamily, PotentialTerm


def grid_1d(n=64, a=0.0, b=4.0):
    return Grid(extent=((a, b),), points=(n,))


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

    @pytest.mark.parametrize("boxes, grid, n0, depth", [
        # Two overlapping intervals: every point of [1, 2] is in both.
        ([((0.0,), (2.0,)), ((1.0,), (3.0,))], grid_1d(81, -1.0, 4.0), 1, 2),
        # Two intervals touching at the grid node x = 1.
        ([((0.0,), (1.0,)), ((1.0,), (2.0,))], grid_1d(5, -1.0, 3.0), 1, 2),
        # Three pairwise-overlapping boxes share the square [1, 2] x [1, 2].
        ([((0.0, 0.0), (2.0, 2.0)), ((1.0, 0.0), (3.0, 2.0)),
          ((0.5, 1.0), (2.5, 3.0))],
         Grid(extent=((-1.0, 4.0), (-1.0, 4.0)), points=(21, 21)), 2, 3),
    ], ids=["overlap", "touching", "three-boxes-2d"])
    def test_overlap_depth_beyond_n0(self, boxes, grid, n0, depth):
        # A point can lie in n0 + 1 supports; the bound counts them all.
        v = 1.5
        fam = PotentialFamily([
            PotentialTerm(profile=ConstantProfile(v), support=SupportSet((Box(lo, hi),)))
            for lo, hi in boxes])
        assert fam.n0 == n0
        assert uniform_sum_norm_bound(fam, grid) == depth * v
        dense = sum(np.abs(t.evaluate(grid.nodes())) for t in fam.terms).max()
        assert dense == depth * v

    def test_unbounded_family_rejected(self):
        from specpert.potentials import PowerSpike

        g = grid_1d()
        fam = PotentialFamily([
            PotentialTerm(profile=PowerSpike((0.5,), 0.5),
                          support=interval_set(0.0, 1.0))
        ])
        with pytest.raises(ValueError):
            uniform_sum_norm_bound(fam, g)


class TestOverlapDepth:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_lower_face_count(self, dim):
        # Faces on the lattice 0.5 Z, so that boxes of different sets touch
        # at faces and corners; the depth is the count at the best node of
        # the lower-face grid, and no lattice point (faces and midpoints
        # alike) lies in more of the sets.
        rng = np.random.default_rng(60 + dim)
        lattice = np.arange(-1, 20) * 0.25
        points = np.column_stack([g.ravel() for g in np.meshgrid(*[lattice] * dim,
                                                                 indexing="ij")])
        for _ in range(20):
            sets = []
            for _ in range(rng.integers(1, 7)):
                boxes = []
                for _ in range(rng.integers(1, 4)):
                    lo = rng.integers(0, 7, size=dim)
                    hi = lo + rng.integers(1, 4, size=dim)
                    boxes.append(Box(tuple(lo * 0.5), tuple(hi * 0.5)))
                sets.append(SupportSet(tuple(boxes)))
            axes = [np.unique([b.lo[k] for s in sets for b in s.boxes]) for k in range(dim)]
            nodes = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
            depth = sum(s.contains_points(nodes).astype(int) for s in sets).max()
            assert _overlap_depth(sets) == depth
            assert sum(s.contains_points(points).astype(int) for s in sets).max() == depth


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

"""Geometry: intersection stats, refinement, packing bounds."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specpert.geometry import (
    DEFAULT_CELL_BUDGET,
    Box,
    GeometryError,
    PackingConfig,
    RefinementBudgetError,
    SupportFamily,
    SupportSet,
    box1d,
    box_table,
    boxes_meeting,
    check_fip_variant,
    count_in_ball,
    disjoint_refinement,
    intersection_stats,
    interval_set,
    packing_count_bound,
    shell_count_bound,
)
from specpert import geometry
from specpert.geometry import _axis_coords, _membership_words, _row_changes


def family_1d(*intervals):
    return SupportFamily(tuple(interval_set(a, b) for a, b in intervals))


def brute_force_overlaps(intervals):
    """Oracle: pairwise closed-interval overlap by direct comparison."""
    n = len(intervals)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            (a1, b1), (a2, b2) = intervals[i], intervals[j]
            if a1 <= b2 and a2 <= b1:
                adj[i].add(j + 1)
    return adj


class TestIntersectionStats:
    def test_disjoint_family(self):
        adj, n0 = intersection_stats(family_1d((0, 1), (5, 6), (10, 11)))
        assert n0 == 0
        assert all(a == set() for a in adj)

    def test_three_interval_chain(self):
        intervals = [(0, 2), (1, 3), (2, 4)]
        adj, n0 = intersection_stats(family_1d(*intervals))
        # Closed boxes: [0,2] and [2,4] touch at the point 2.
        assert adj == [{2, 3}, {1, 3}, {1, 2}]
        assert n0 == 2
        assert adj == brute_force_overlaps(intervals)

    @pytest.mark.parametrize("k", [3, 5, 10, 25])
    def test_chain_n0_independent_of_length(self, k):
        # Interval i = [1.5 i, 1.5 i + 2]: overlaps neighbors only.
        intervals = [(1.5 * i, 1.5 * i + 2.0) for i in range(k)]
        adj, n0 = intersection_stats(family_1d(*intervals))
        assert n0 == 2
        assert adj == brute_force_overlaps(intervals)

    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False),
                st.floats(0.1, 5, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, spans):
        intervals = [(a, a + w) for a, w in spans]
        adj, n0 = intersection_stats(family_1d(*intervals))
        oracle = brute_force_overlaps(intervals)
        assert adj == oracle
        assert n0 == max(len(a) for a in oracle)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_pairwise_support_set_intersects(self, data):
        # Multi-box sets in 1-3 dimensions on an integer lattice, so faces
        # and corners often touch; oracle: the pairwise SupportSet loop.
        m = data.draw(st.integers(1, 3))

        def box():
            lo = data.draw(st.lists(st.integers(0, 6), min_size=m, max_size=m))
            width = data.draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
            return Box(tuple(float(v) for v in lo),
                       tuple(float(v + w) for v, w in zip(lo, width)))

        sets = tuple(SupportSet(tuple(box() for _ in range(data.draw(st.integers(1, 3)))))
                     for _ in range(data.draw(st.integers(1, 8))))
        adj, n0 = intersection_stats(SupportFamily(sets))
        oracle = [{j + 1 for j, b in enumerate(sets) if j != i and a.intersects(b)}
                  for i, a in enumerate(sets)]
        assert adj == oracle
        assert n0 == max(len(a) for a in oracle)

    def test_more_boxes_than_one_row_block(self):
        # About 300 boxes in 2D: the box table meets itself in several row
        # blocks, and a set's boxes may fall in two of them.
        fam = random_box_family(np.random.default_rng(7), 2, 150)
        lo, _, _ = box_table(fam.sets, 2)
        assert len(lo) > 2 * (geometry._TABLE_ENTRIES // lo.size)
        adj, n0 = intersection_stats(fam)
        oracle = [{j + 1 for j, b in enumerate(fam.sets) if j != i and a.intersects(b)}
                  for i, a in enumerate(fam.sets)]
        assert adj == oracle
        assert n0 == max(len(a) for a in oracle)

    def test_box_table_skips_unsupported_entries(self):
        sets = [interval_set(0.0, 1.0), None,
                SupportSet((box1d(2.0, 3.0), box1d(4.0, 5.0)))]
        lo, hi, owner = box_table(sets, 1)
        assert lo.tolist() == [[0.0], [2.0], [4.0]]
        assert hi.tolist() == [[1.0], [3.0], [5.0]]
        assert owner.tolist() == [0, 2, 2]
        # Closed boxes: [1, 2] touches [0, 1] at 1 and [2, 3] at 2.
        assert boxes_meeting(lo, hi, [1.0], [2.0]).tolist() == [True, True, False]
        assert boxes_meeting(lo, hi, [1.5], [1.9]).tolist() == [False, False, False]
        assert box_table([None], 2)[0].shape == (0, 2)


class TestFipVariant:
    def test_single_set(self):
        assert check_fip_variant(family_1d((0, 1)), radius=1.0) == 1

    def test_widely_spaced(self):
        fam = family_1d(*[(10 * i, 10 * i + 1) for i in range(5)])
        assert check_fip_variant(fam, radius=1.0) == 1

    def test_tightly_spaced_matches_sampling_oracle(self):
        fam = family_1d(*[(0.5 * i, 0.5 * i + 1) for i in range(5)])
        n1 = check_fip_variant(fam, radius=1.0)
        # Dense-sampling oracle on the inflated intervals.
        xs = np.linspace(-3, 6, 10_000).reshape(-1, 1)
        inflated = [s.inflate(1.0) for s in fam.sets]
        depth = sum(s.contains_points(xs).astype(int) for s in inflated)
        assert n1 == int(depth.max())

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(GeometryError):
            check_fip_variant(family_1d((0, 1)), radius=0.0)

    def test_overlapping_boxes_of_one_set_count_once(self):
        # Three boxes of one set overlap around x = (1.5, 1.5); a second set
        # meets them there.
        s = SupportSet((Box((0.0, 0.0), (2.0, 2.0)), Box((1.0, 1.0), (3.0, 3.0)),
                        Box((1.0, 0.0), (2.0, 3.0))))
        other = SupportSet((Box((1.5, 1.5), (4.0, 4.0)),))
        assert check_fip_variant(SupportFamily((s,)), radius=0.5) == 1
        assert check_fip_variant(SupportFamily((s, other)), radius=0.5) == 2
        assert check_fip_variant(SupportFamily((s, s, other)), radius=0.5) == 3

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n_sets", [6, 70])
    def test_random_families_match_midpoint_count(self, dim, n_sets):
        # Oracle: at the midpoint of every arrangement box of the inflated
        # faces, the number of inflated sets holding it, each counted once.
        rng = np.random.default_rng(10 * dim + n_sets)
        for _ in range(5):
            fam = random_box_family(rng, dim, n_sets)
            radius = float(rng.choice([0.25, 0.5, 1.0]))
            inflated = [s.inflate(radius) for s in fam.sets]
            coords = _axis_coords(*box_table(inflated, dim)[:2], DEFAULT_CELL_BUDGET)
            mids = cell_midpoints(coords)
            depth = sum(s.contains_points(mids).astype(int) for s in inflated)
            assert check_fip_variant(fam, radius=radius) == int(depth.max())

    def test_cell_budget(self):
        # 64 disjoint unit cubes [4k, 4k+1]^3: inflated by 1 their faces cut
        # each axis into 127 intervals, 127^3 = 2,048,383 cells > 2,000,000.
        fam = SupportFamily(tuple(
            SupportSet((Box((4.0 * k,) * 3, (4.0 * k + 1,) * 3),)) for k in range(64)))
        with pytest.raises(RefinementBudgetError, match="2048383 cells"):
            check_fip_variant(fam, radius=1.0)


def cell_sets(part):
    """The index set of every cell of the partition, in cell order."""
    return [part.index_set(j) for j in range(len(part))]


def mesh_classify(family, xs):
    """Oracle: maximal index set per point from direct membership."""
    member = family.membership_matrix(xs)
    return [frozenset(int(i) + 1 for i in np.nonzero(row)[0]) for row in member]


class TestDisjointRefinement:
    def test_disjoint_family_is_identity(self):
        fam = family_1d((0, 1), (5, 6), (10, 11))
        part = disjoint_refinement(fam)
        assert len(part) == 3
        assert sorted(cell_sets(part)) == [
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        ]

    def test_two_overlapping_intervals(self):
        fam = family_1d((0, 2), (1, 3))
        part = disjoint_refinement(fam)
        assert set(cell_sets(part)) == {frozenset({1}), frozenset({1, 2}), frozenset({2})}
        assert len(part) == 3
        for i in (1, 2):
            assert sum(i in c for c in cell_sets(part)) == 2 <= 2**1
        # Mesh-classification oracle on a fine grid (off-boundary points).
        xs = (np.linspace(0.001, 2.999, 500) + 1e-4).reshape(-1, 1)
        assert part.index_sets_at(xs) == mesh_classify(fam, xs)

    def test_triple_overlap_cell_budget(self):
        fam = family_1d((0, 3), (1, 2), (2.5, 4))
        part = disjoint_refinement(fam)
        _, n0 = intersection_stats(fam)
        assert n0 == 2
        assert sum(1 in c for c in cell_sets(part)) <= 2**n0
        xs = (np.linspace(0.0, 4.0, 1000) + 1e-5).reshape(-1, 1)
        assert part.index_sets_at(xs) == mesh_classify(fam, xs)

    def test_cell_budget(self):
        # Faces 0, 1, 2, 3 give three arrangement cells.
        with pytest.raises(RefinementBudgetError, match="3 cells, budget is 2"):
            disjoint_refinement(family_1d((0, 2), (1, 3)), cell_budget=2)
        assert len(disjoint_refinement(family_1d((0, 2), (1, 3)), cell_budget=3)) == 3

    def test_2d_refinement_matches_oracle(self):
        fam = SupportFamily(
            (
                SupportSet((Box((0, 0), (2, 2)),)),
                SupportSet((Box((1, 1), (3, 3)),)),
                SupportSet((Box((4, 0), (5, 1)),)),
            )
        )
        part = disjoint_refinement(fam)
        rng = np.random.default_rng(3)
        xs = rng.uniform(-0.5, 5.5, size=(2000, 2))
        assert part.index_sets_at(xs) == mesh_classify(fam, xs)

    def test_boundary_tie_break_is_lexicographic(self):
        part = disjoint_refinement(family_1d((0, 2), (1, 3)))
        # x = 1 lies in the closed cells {1} and {1,2}; smallest sorted wins.
        assert part.index_set_at((1.0,)) == frozenset({1})

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cell_table_layout(self, dim):
        # One slice of `members` per cell, ascending, the slices end to end;
        # `index_set_matrix` marks each, and `boxes` counts the labels.
        rng = np.random.default_rng(40 + dim)
        for _ in range(5):
            fam = random_box_family(rng, dim, 9)
            part = disjoint_refinement(fam)
            assert part.ptr[0] == 0 and part.ptr[-1] == len(part.members)
            assert len(part.ptr) == len(part) + 1 == len(part.boxes) + 1
            for j, (a, b) in enumerate(zip(part.ptr[:-1], part.ptr[1:])):
                cell = part.members[a:b]
                assert b > a and np.all(np.diff(cell) > 0)
                assert np.array_equal(np.flatnonzero(part.index_set_matrix()[j]) + 1, cell)
            assert np.array_equal(part.boxes,
                                  np.bincount(part.labels[part.labels >= 0], minlength=len(part)))

    @pytest.mark.parametrize("fam, expected", [
        (family_1d((0, 2), (1, 3)), {(1,): 1, (1, 2): 1, (2,): 1}),
        (SupportFamily((SupportSet((Box((0, 0), (2, 2)),)),
                        SupportSet((Box((1, 1), (3, 3)),)))),
         {(1,): 3, (1, 2): 1, (2,): 3}),
    ], ids=["intervals", "squares"])
    def test_cell_box_counts(self, fam, expected):
        part = disjoint_refinement(fam)
        assert {tuple(sorted(c)): n for c, n in zip(cell_sets(part), part.boxes)} == expected

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_boundary_points_match_offset_oracle(self, data):
        # Integer box corners and half-integer points: many points lie on
        # faces, edges and corners of the arrangement.
        dim = data.draw(st.integers(1, 3))
        corner = st.lists(st.integers(0, 4), min_size=dim, max_size=dim)
        width = st.lists(st.integers(1, 3), min_size=dim, max_size=dim)
        box = st.builds(lambda lo, w: Box(tuple(float(a) for a in lo),
                                          tuple(float(a + b) for a, b in zip(lo, w))),
                        corner, width)
        fam = SupportFamily(tuple(
            SupportSet(tuple(boxes)) for boxes in data.draw(
                st.lists(st.lists(box, min_size=1, max_size=2), min_size=1, max_size=4))))
        xs = np.asarray(data.draw(st.lists(
            st.lists(st.integers(-2, 16), min_size=dim, max_size=dim),
            min_size=1, max_size=30)), dtype=float) / 2
        part = disjoint_refinement(fam)
        ids = part.cell_ids_at(xs)
        # Oracle: the closed cells containing x are those of the arrangement
        # boxes around x, each reached by an offset of 0.25 per axis.
        signs = np.array(list(itertools.product((-0.25, 0.25), repeat=dim)))
        for x, cid in zip(xs, ids):
            rows = fam.membership_matrix(x + signs)
            sets = [sorted(int(i) + 1 for i in np.flatnonzero(r)) for r in rows if r.any()]
            want = frozenset(min(sets)) if sets else frozenset()
            assert part.index_set_at(tuple(x)) == want
            assert (part.index_set(cid) if cid >= 0 else frozenset()) == want


def random_box_family(rng, dim, n_sets):
    """n_sets sets of one to three boxes with corners on a coarse lattice, so
    that faces coincide and boxes of one set may overlap or touch."""
    sets = []
    for _ in range(n_sets):
        boxes = []
        for _ in range(rng.integers(1, 4)):
            lo = rng.integers(0, 7, size=dim)
            hi = lo + rng.integers(1, 4, size=dim)
            boxes.append(Box(tuple(lo * 0.5), tuple(hi * 0.5)))
        sets.append(SupportSet(tuple(boxes)))
    return SupportFamily(tuple(sets))


def cell_midpoints(coords):
    """The midpoint of every arrangement box of `coords`, box-major (C order)."""
    mids = [(c[:-1] + c[1:]) / 2 for c in coords]
    return np.column_stack([g.ravel() for g in np.meshgrid(*mids, indexing="ij")])


def box_major_refinement(family):
    """Oracle: the arrangement grouping from the box-major (n_boxes, n_sets)
    boolean membership matrix, column-stacked and packed along the set axis,
    with each index set read from its first box's row."""
    coords = _axis_coords(*box_table(family.sets, family.dim)[:2], DEFAULT_CELL_BUDGET)
    member = family.membership_matrix(cell_midpoints(coords))
    packed = np.packbits(member, axis=1)
    keys = packed.view(f"V{packed.shape[1]}").ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    index_sets = [frozenset(int(i) + 1 for i in np.flatnonzero(member[f])) for f in first]
    return coords, packed, [index_sets[g] for g in group]


class TestMembershipBytes:
    """The arrangement keys of `disjoint_refinement`, written one box at a
    time, against the packing of the box-major boolean membership matrix
    (zero-padded to whole 64-bit words)."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n_sets", [1, 8, 13, 64, 70])
    def test_keys_match_box_major_packing(self, dim, n_sets):
        rng = np.random.default_rng(100 * dim + n_sets)
        for _ in range(5):
            fam = random_box_family(rng, dim, n_sets)
            coords, oracle, _ = box_major_refinement(fam)
            words = _membership_words(*box_table(fam.sets, dim), n_sets, coords)
            assert words.dtype == np.uint64 and words.shape[1] == -(-n_sets // 64)
            packed = words.view(np.uint8)
            n_bytes = oracle.shape[1]
            assert packed[:, :n_bytes].tobytes() == oracle.tobytes()
            assert not packed[:, n_bytes:].any()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n_sets", [11, 70])
    def test_partition_matches_box_major_grouping(self, dim, n_sets):
        # With 70 sets the first 64 may all be one box over the whole
        # lattice, so that only the second word of a key tells cells apart.
        rng = np.random.default_rng(100 * dim + n_sets)
        whole = SupportSet((Box((0.0,) * dim, (5.0,) * dim),))
        for k in range(6):
            fam = random_box_family(rng, dim, n_sets)
            if k % 2 and n_sets > 64:
                fam = SupportFamily((whole,) * 64 + fam.sets[64:])
            _, _, oracle_sets = box_major_refinement(fam)
            part = disjoint_refinement(fam)
            got = [part.index_set(j) if j >= 0 else frozenset()
                   for j in part.labels.ravel()]
            assert got == oracle_sets
            # Cells come in the order of their sorted index lists, a prefix
            # first (the tie-break of `cell_ids_at`).
            assert [sorted(c) for c in cell_sets(part)] == sorted(
                sorted(s) for s in set(oracle_sets) if s)


    @pytest.mark.parametrize("sets", [
        # [0, 3] around [1, 2]: the row of {1} holds the boxes on both sides.
        [[((0.0,), (3.0,))], [((1.0,), (2.0,))]],
        # A frame of one set around a hole, with a disjoint box of a second
        # set: in C order the frame's row recurs after every hole row.
        [[((0.0, 0.0), (3.0, 1.0)), ((0.0, 2.0), (3.0, 3.0)), ((0.0, 0.0), (1.0, 3.0)),
          ((2.0, 0.0), (3.0, 3.0))], [((4.0, 4.0), (5.0, 5.0))]],
        # Two sets, each of two boxes at opposite corners of a cube.
        [[((0.0,) * 3, (1.0,) * 3), ((2.0,) * 3, (3.0,) * 3)],
         [((0.0, 2.0, 0.0), (1.0, 3.0, 1.0)), ((2.0, 0.0, 2.0), (3.0, 1.0, 3.0))]],
    ], ids=["1d-nested", "2d-frame", "3d-corners"])
    def test_recurring_rows_in_separate_runs(self, sets):
        fam = SupportFamily(tuple(SupportSet(tuple(Box(lo, hi) for lo, hi in s))
                                  for s in sets))
        coords, _, oracle_sets = box_major_refinement(fam)
        words = _membership_words(*box_table(fam.sets, fam.dim), len(fam), coords)
        runs = words[_row_changes(words)]
        # Some row recurs in runs that are not adjacent.
        assert len(runs) > len(np.unique(runs, axis=0))
        part = disjoint_refinement(fam)
        got = [part.index_set(j) if j >= 0 else frozenset()
               for j in part.labels.ravel()]
        assert got == oracle_sets
        assert [sorted(c) for c in cell_sets(part)] == sorted(
            sorted(s) for s in set(oracle_sets) if s)
        assert part.boxes.tolist() == [oracle_sets.count(c) for c in cell_sets(part)]


class TestPackingBounds:
    def test_closed_form_values(self):
        assert packing_count_bound(1, 1.0, 1.0) == pytest.approx(2.0)
        assert packing_count_bound(2, 3.0, 1.0) == pytest.approx(16.0)

    def test_zero_radius(self):
        for m in (1, 2, 3):
            assert packing_count_bound(m, 0.0, 0.7) == pytest.approx(1.0)

    def test_shell_values(self):
        assert shell_count_bound(1, 2.0, 1.0, 1.0) == pytest.approx(3.0)
        # (R+d+A)^2 - (R-A)^2 over A^2: (3.5^2 - 1.5^2) / 0.25.
        assert shell_count_bound(2, 2.0, 1.0, 0.5) == pytest.approx(40.0)

    def test_shell_limit_small_width(self):
        val = shell_count_bound(1, 2.0, 1e-12, 1.0)
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(GeometryError):
            packing_count_bound(1, 1.0, 0.0)
        with pytest.raises(GeometryError):
            shell_count_bound(1, 0.5, 1.0, 1.0)  # R <= A


class TestCountInBall:
    def test_empty_centers(self):
        config = PackingConfig(centers=np.empty((0, 1)), A=1.0)
        assert count_in_ball(config, [0.0], 5.0) == 0

    def test_direct_enumeration(self):
        config = PackingConfig(centers=np.array([[0.0], [2.1], [4.2]]), A=1.0)
        count = count_in_ball(config, [2.1], 2.2)
        assert count == 3
        assert count <= packing_count_bound(1, 2.2, 1.0) == pytest.approx(3.2)

    def test_separation_validated(self):
        with pytest.raises(GeometryError):
            PackingConfig(centers=np.array([[0.0], [1.0]]), A=1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_2d_configs_respect_bound(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.uniform(0.3, 1.5)
        # Jittered lattice guarantees separation > 2A.
        step = 2 * A * 1.3
        jitter = 0.1 * A
        grid = np.stack(
            np.meshgrid(np.arange(4) * step, np.arange(4) * step), axis=-1
        ).reshape(-1, 2)
        centers = grid + rng.uniform(-jitter, jitter, size=grid.shape)
        config = PackingConfig(centers=centers, A=A)
        x = rng.uniform(-2, 10, size=2)
        R = rng.uniform(0, 8)
        assert count_in_ball(config, x, R) <= packing_count_bound(2, R, A)

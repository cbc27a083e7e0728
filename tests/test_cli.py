"""CLI: scenario validation, task execution, exit codes, determinism."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import yaml
from click.testing import CliRunner

from specpert import analytic, cli, geometry, lattice, potentials
from specpert.cli import (SCENARIO_SCHEMA, RunContext, ScenarioError, execute_scenario,
                          load_scenario, main, task_bounds)
from specpert.geometry import Box, SupportSet
from specpert.lattice import DiscreteOperator

TWO_LEVEL = {
    "schema": 1,
    "seed": 1,
    "family": {
        "kind": "matrix",
        "h0": [[0.0, 0.0], [0.0, 1.0]],
        "terms": [[[0.0, 1.0], [1.0, 0.0]]],
    },
    "beta": {"values": [0.3], "p": "inf"},
    "tasks": [],
}


# Three bumps whose supports do not meet: n0 = 0, one cell per set.
DISJOINT_GEOMETRY = {
    "schema": 1,
    "seed": 0,
    "grid": {"extent": [[0.0, 9.0]], "points": [64]},
    "family": {"kind": "bump_lattice", "count": 3, "spacing": 3.0,
               "origin": [1.0], "width": 0.3, "height": 1.0,
               "support_halfwidth": 1.0},
    "beta": {"values": [0.1, 0.1, 0.1]},
    "tasks": [{"task": "geometry"}],
}


def write_scenario(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def read_csv(path):
    rows = [
        line.split(",")
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    header, data = rows[0], rows[1:]
    return header, [[float(x.rstrip("j").replace("+", " ").split()[0]) if x else 0.0
                     for x in row] for row in data]


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


class TestScenarioLoading:
    def test_schema_violation_named_field(self, tmp_path):
        doc = dict(TWO_LEVEL)
        doc["schema"] = 2
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ScenarioError, match="schema"):
            load_scenario(path)

    def test_override_dotted_path(self, tmp_path):
        path = write_scenario(tmp_path, TWO_LEVEL)
        doc = load_scenario(path, ("seed=9", "beta.values.0=0.1"))
        assert doc["seed"] == 9
        assert doc["beta"]["values"][0] == 0.1

    @pytest.mark.parametrize("override", [
        "notakeyvalue", "tasks.9.r=0.1", "grid.points=3", "tasks.x.r=1", "seed=[1",
    ], ids=["no-equals", "index-out-of-range", "missing-parent", "non-integer-index",
            "malformed-yaml"])
    def test_bad_override(self, tmp_path, override):
        path = write_scenario(tmp_path, TWO_LEVEL)
        with pytest.raises(ScenarioError, match="override"):
            load_scenario(path, (override,))

    def test_override_adds_missing_leaf(self, tmp_path):
        path = write_scenario(tmp_path, TWO_LEVEL)
        doc = load_scenario(path, ("tolerances={track_residual: 1.0e-9}", "family.note=x"))
        assert doc["tolerances"] == {"track_residual": 1e-9}
        assert doc["family"]["note"] == "x"

    def test_bad_override_is_usage_error(self, tmp_path):
        path = write_scenario(tmp_path, TWO_LEVEL)
        result = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "out"),
                          "--override", "tasks.9.r=0.1"])
        assert result.exit_code == 2
        assert "scenario error: override 'tasks.9.r'" in result.stderr

    def test_unknown_task_rejected(self, tmp_path):
        doc = dict(TWO_LEVEL)
        doc["tasks"] = [{"task": "dance"}]
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_schema_passes_its_metaschema(self):
        jsonschema.validators.validator_for(SCENARIO_SCHEMA).check_schema(SCENARIO_SCHEMA)

    @pytest.mark.parametrize("change", [
        {"schema": 2}, {"seed": -1}, {"seed": "x"}, {"tasks": [{"task": "dance"}]},
        {"tasks": [{"q": 3}]}, {"grid": {"extent": [], "points": [3]}},
        {"family": {}, "beta": {}}, {"beta": None},
        # The first error found is grid.extent; the shallower one is chosen.
        {"grid": {"extent": [], "points": [3]}, "family": "x"},
    ])
    def test_schema_message_is_the_best_match(self, tmp_path, change):
        # The validator built once reports the error `jsonschema.validate`
        # would raise, by the same `best_match` choice.
        doc = {k: v for k, v in {**TWO_LEVEL, **change}.items() if v is not None}
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(doc, SCENARIO_SCHEMA)
        loc = ".".join(str(p) for p in expected.value.absolute_path) or "(root)"
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_scenario(tmp_path, doc))
        assert str(exc.value) == f"scenario field {loc}: {expected.value.message}"


class TestRun:
    def test_empty_task_list(self, tmp_path):
        path = write_scenario(tmp_path, TWO_LEVEL)
        out = tmp_path / "out"
        result = run_cli(["run", "--scenario", str(path), "--out", str(out)])
        assert result.exit_code == 0
        report = yaml.safe_load((out / "report.yaml").read_text())
        assert report["tasks"] == []
        assert report["invariants"] == []

    def test_threads_option_removed(self, tmp_path):
        path = write_scenario(tmp_path, TWO_LEVEL)
        result = run_cli(["run", "--scenario", str(path), "--threads", "2"])
        assert result.exit_code == 2

    def test_missing_scenario_is_usage_error(self, tmp_path):
        result = run_cli(["run", "--scenario", str(tmp_path / "nope.yaml")])
        assert result.exit_code == 2

    def test_two_level_track_matches_closed_form(self, tmp_path):
        doc = dict(TWO_LEVEL)
        doc["tolerances"] = {"track_residual": 1e-10}
        doc["tasks"] = [
            {"task": "sweep", "axis": 1, "range": [0.0, 0.45], "steps": 10,
             "eig_index": 0, "contour_nodes": 128},
        ]
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        result = run_cli(["run", "--scenario", str(path), "--out", str(out)])
        assert result.exit_code == 0
        header, data = read_csv(out / "sweep.csv")
        assert header[:2] == ["s", "re_e"]
        for row in data:
            s, re_e = row[0], row[1]
            oracle = (1.0 - np.sqrt(1.0 + 4.0 * s**2)) / 2.0
            assert re_e == pytest.approx(oracle, abs=1e-10)

    def test_geometry_task_disjoint_family(self, tmp_path):
        path = write_scenario(tmp_path, DISJOINT_GEOMETRY)
        out = tmp_path / "out"
        result = run_cli(["run", "--scenario", str(path), "--out", str(out)])
        assert result.exit_code == 0
        report = yaml.safe_load((out / "report.yaml").read_text())
        geo = report["tasks"][0]["result"]
        assert geo["n0"] == 0
        assert geo["cells"] == 3  # refinement is the identity

    def test_geometry_cells_above_bound_fails_invariant(self, tmp_path, monkeypatch):
        # A refinement that splits one set into two cells breaks the 2^n0 = 1
        # bound of a disjoint family; the invariant, not the library, reports
        # it (exit 1 with a FAIL line).
        refine = geometry.disjoint_refinement

        def split_one_cell(*args, **kwargs):
            p = refine(*args, **kwargs)
            first = p.members[p.ptr[0]:p.ptr[1]]
            return dataclasses.replace(p, ptr=np.append(p.ptr, p.ptr[-1] + len(first)),
                                       members=np.concatenate((p.members, first)),
                                       boxes=np.append(p.boxes, p.boxes[0]))

        monkeypatch.setattr(geometry, "disjoint_refinement", split_one_cell)
        path = write_scenario(tmp_path, DISJOINT_GEOMETRY)
        result = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert "FAIL geometry.cells_within_2^n0: max per-set cells 2 vs bound 1" in result.output
        assert result.exit_code == 1

    def test_zero_length_sweep_single_row(self, tmp_path):
        doc = dict(TWO_LEVEL)
        doc["tasks"] = [{"task": "sweep", "axis": 1, "range": [0.2, 0.2],
                         "steps": 1, "contour_nodes": 64}]
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        result = run_cli(["run", "--scenario", str(path), "--out", str(out)])
        assert result.exit_code == 0
        _, data = read_csv(out / "sweep.csv")
        assert len(data) == 1

    def test_non_hermitian_contour_centred_at_complex_eigenvalue(self, tmp_path):
        # H(i s) = [[0, i s], [i s, 0.1]] has the eigenvalues
        # 0.05 +- i sqrt(s^2 - 0.0025): equal real parts, 2 sqrt(s^2 - 0.0025)
        # apart, so the contour is centred at one of them.
        doc = {**TWO_LEVEL,
               "family": {"kind": "matrix", "h0": [[0.0, 0.0], [0.0, 0.1]],
                          "terms": [[[0.0, 1.0], [1.0, 0.0]]]},
               "tasks": [{"task": "sweep", "direction": ["1j"], "range": [0.5, 0.6],
                          "steps": 2}]}
        H = DiscreteOperator(sp.csr_matrix([[0.0, 0.5j], [0.5j, 0.1]]), hermitian=False)
        contour = cli._place_contour(H, 0)
        assert abs(contour.center - 0.05) == pytest.approx(math.sqrt(0.2475), abs=1e-12)
        assert contour.radius == pytest.approx(math.sqrt(0.2475), abs=1e-12)
        out = tmp_path / "out"
        result = run_cli(["run", "--scenario", str(write_scenario(tmp_path, doc)),
                          "--out", str(out)])
        assert result.exit_code == 0, result.output
        _, data = read_csv(out / "sweep.csv")
        branch = math.copysign(1.0, contour.center.imag)
        assert [row[0] for row in data] == [0.5, 0.6]
        for s, re_e, im_e, *_ in data:
            assert re_e == pytest.approx(0.05, abs=1e-12)
            assert im_e == pytest.approx(branch * math.sqrt(s**2 - 0.0025), abs=1e-12)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7, 1.3])
    def test_conjugate_pair_ordered_by_imaginary_part(self, s):
        # The computed real parts of 0.05 +- i sqrt(s^2 - 0.0025) differ in
        # their last bits, one way or the other depending on s.
        H = DiscreteOperator(sp.csr_matrix([[0.0, 1j * s], [1j * s, 0.1]]), hermitian=False)
        assert cli._place_contour(H, 0).center.imag < 0
        assert cli._place_contour(H, 1).center.imag > 0

    def test_numerical_failure_exit_code(self, tmp_path):
        # A contour-busting coupling: the tracked eigenvalue leaves the
        # contour placed at beta = 0, so tracking fails numerically.
        doc = dict(TWO_LEVEL)
        doc["beta"] = {"values": [5.0]}
        doc["tasks"] = [{"task": "track", "eig_index": 0}]
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path),
                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 3

    def test_track_defect_above_tolerance_fails_invariant(self, tmp_path):
        # The track task leaves the residual and defect limits to its
        # invariant: a defect tolerance no projector meets exits 1 with a
        # FAIL line, not 3.
        doc = dict(TWO_LEVEL)
        doc["tolerances"] = {"projector_defect": 1e-30}
        doc["tasks"] = [{"task": "track", "eig_index": 0}]
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path),
                          "--out", str(tmp_path / "out")])
        assert "FAIL track.residual_and_defect" in result.output
        assert result.exit_code == 1

    def test_tol_option_sets_every_tolerance(self, tmp_path):
        # --tol 1e-30 replaces the scenario's tolerances: no track residual
        # or projector defect meets it, and the invariant FAILs (exit 1).
        doc = dict(TWO_LEVEL, tasks=[{"task": "track", "eig_index": 0}])
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "out"),
                          "--tol", "1e-30"])
        assert "FAIL track.residual_and_defect" in result.output
        assert result.exit_code == 1

    def test_seed_option_sets_provenance_seed(self, tmp_path):
        path = write_scenario(tmp_path, TWO_LEVEL)
        out = tmp_path / "out"
        result = run_cli(["run", "--scenario", str(path), "--out", str(out), "--seed", "5"])
        assert result.exit_code == 0, result.output
        assert yaml.safe_load((out / "report.yaml").read_text())["provenance"]["seed"] == 5

    def test_degenerate_eigenvalue_is_numerical_failure(self, tmp_path):
        # On a square 5 x 5 grid the Laplacian's eigenvalues 1 and 2 are the
        # sums lambda_1 + lambda_2 and lambda_2 + lambda_1 of the 1D ones,
        # equal bit for bit: no circle encloses eigenvalue 1 alone.
        doc = {
            "schema": 1,
            "seed": 0,
            "grid": {"extent": [[0.0, 6.0], [0.0, 6.0]], "points": [5, 5]},
            "family": {"kind": "bump_lattice", "count": 1, "origin": [3.0, 3.0]},
            "beta": {"values": [0.1]},
            "tasks": [{"task": "track", "eig_index": 1}],
        }
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "eigenvalue 1 is degenerate" in result.stderr

    def test_geometry_on_matrix_family_is_usage_error(self, tmp_path):
        path = write_scenario(tmp_path, dict(TWO_LEVEL, tasks=[{"task": "geometry"}]))
        result = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "task 'geometry' needs a grid-sampled family" in result.stderr

    def test_grid_family_without_grid_is_usage_error(self, tmp_path):
        doc = {key: value for key, value in BUMPS.items() if key != "grid"}
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "scenario needs a grid" in result.stderr

    def test_track_and_sweep_print_solve_counters(self, tmp_path):
        # The Hermitian filter path: one shift-invert LU and two
        # inverse-iteration columns per vector, and no d x d projector.  A
        # reference vector (P w) and a tracked point (P psi0) take one LU
        # each: 1 + 1 for track, 1 + 4 for the sweep.
        doc = dict(TWO_LEVEL)
        doc["tasks"] = [
            {"task": "track", "eig_index": 0},
            {"task": "sweep", "axis": 1, "range": [0.0, 0.3], "steps": 4},
        ]
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        result = run_cli(["run", "--scenario", str(path), "--out", str(out)])
        assert result.exit_code == 0
        report = yaml.safe_load((out / "report.yaml").read_text())
        assert report["tasks"][1]["result"]["halvings"] == 0
        lines = [line for line in result.stderr.splitlines() if "[" in line]
        assert "factorizations 2, rhs columns 4, full-P 0, defect/tol" in lines[0]
        assert "factorizations 5, rhs columns 10, full-P 0, defect/tol" in lines[1]
        assert "factorizations" not in (out / "report.yaml").read_text()

    def test_track_and_sweep_print_worst_residual(self, tmp_path, monkeypatch):
        # The stderr line gives the worst eigen-residual as a fraction of
        # track_residual; report.yaml does not depend on it.
        doc = dict(TWO_LEVEL)
        doc["tolerances"] = {"track_residual": 1e-10}
        doc["tasks"] = [
            {"task": "track", "eig_index": 0},
            {"task": "sweep", "axis": 1, "range": [0.0, 0.3], "steps": 4},
        ]
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "a")])
        assert result.exit_code == 0
        residuals = [yaml.safe_load((tmp_path / "a" / "report.yaml").read_text())
                     ["tasks"][0]["result"]["residual"]]
        residuals += [row[3] for row in read_csv(tmp_path / "a" / "sweep.csv")[1]]
        lines = [line for line in result.stderr.splitlines() if "[" in line]
        notes = [float(line.split("residual/tol ")[1]) for line in lines]
        assert notes[0] == pytest.approx(residuals[0] / 1e-10, rel=1e-2)
        assert notes[1] == pytest.approx(max(residuals[1:]) / 1e-10, rel=1e-2)
        assert 0 < max(notes) < 1e-4

        track = analytic.track_eigenvalue

        def inflated(*args, **kwargs):
            res = track(*args, **kwargs)
            kwargs["stats"].max_residual = 123.0
            return res

        monkeypatch.setattr(analytic, "track_eigenvalue", inflated)
        result = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "b")])
        assert result.exit_code == 0
        assert result.stderr.count("residual/tol 1.23e+12") == 2
        assert ((tmp_path / "a" / "report.yaml").read_bytes()
                == (tmp_path / "b" / "report.yaml").read_bytes())

    def test_sweep_through_level_crossing_fails_invariant(self, tmp_path):
        # H(s) = diag(0, 1 - s): the tracked level 0 meets the other level at
        # s = 1, inside the range.  Every step past the contour edge at
        # s = 0.5 halves until it gives up, and the invariant, not the
        # library, reports it (exit 1 with a FAIL line, not 3).
        doc = dict(TWO_LEVEL)
        doc["family"] = {"kind": "matrix", "h0": [[0.0, 0.0], [0.0, 1.0]],
                         "terms": [[[0.0, 0.0], [0.0, -1.0]]]}
        doc["tasks"] = [{"task": "sweep", "axis": 1, "range": [0.0, 2.0],
                         "steps": 3, "eig_index": 0}]
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        result = run_cli(["run", "--scenario", str(path), "--out", str(out)])
        assert "FAIL sweep.completed: step to" in result.output
        assert result.exit_code == 1
        sweep = yaml.safe_load((out / "report.yaml").read_text())["tasks"][0]["result"]
        assert sweep["halvings"] > 0 and sweep["rows"] == 2
        _, rows = read_csv(out / "sweep.csv")
        assert rows[0][0] == 0.0 and rows[0][1] == pytest.approx(0.0, abs=1e-12)
        assert rows[1][0] == 1.0 and np.isnan(rows[1][1])

    def test_sweep_halves_past_the_contour_and_completes(self, tmp_path):
        # H(s) = diag(0.6 s, 1 + 0.6 s): the tracked level moves 0.6 per
        # step, past the contour radius 1/2, so each step fails once and
        # halves, and the other level stays a gap of 1 away.
        doc = dict(TWO_LEVEL)
        doc["family"] = {"kind": "matrix", "h0": [[0.0, 0.0], [0.0, 1.0]],
                         "terms": [[[0.6, 0.0], [0.0, 0.6]]]}
        doc["tasks"] = [{"task": "sweep", "axis": 1, "range": [0.0, 2.0],
                         "steps": 3, "eig_index": 0}]
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        result = run_cli(["run", "--scenario", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "PASS sweep.completed: 3 rows" in result.output
        sweep = yaml.safe_load((out / "report.yaml").read_text())["tasks"][0]["result"]
        assert sweep == {"rows": 3, "halvings": 2, "failure": None, "pass": True}
        _, rows = read_csv(out / "sweep.csv")
        assert [row[0] for row in rows] == [0.0, 1.0, 2.0]
        assert np.isfinite(rows).all()
        for s, re_e, im_e, residual, _ in rows:
            assert re_e == pytest.approx(0.6 * s, abs=1e-12) and im_e == 0.0
            assert residual <= 1e-8

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coupling_is_usage_error(self, tmp_path, value):
        doc = dict(TWO_LEVEL)
        doc["beta"] = {"values": [value], "p": "inf"}
        doc["tasks"] = [{"task": "track", "eig_index": 0}]
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path),
                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "non-finite coupling" in result.stderr

    def test_geometry_refuses_terms_without_support(self, tmp_path):
        # n1 counts an unsupported term as meeting every ball, but the
        # arrangement of the geometry task needs a support for every term.
        doc = {
            "schema": 1,
            "seed": 0,
            "grid": {"extent": [[0.0, 12.0]], "points": [64]},
            "family": {"kind": "disordered", "count": 3, "A": 1.0, "C": 1.0, "k": 3.0},
            "beta": {"values": [0.1, 0.1, 0.1]},
            "tasks": [{"task": "geometry"}],
        }
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path),
                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "without supports" in result.stderr

    def test_stummel_refuses_terms_without_support(self, tmp_path):
        # The probe grid covers the union of the term supports, which a
        # `disordered` term does not have.
        doc = {
            "schema": 1,
            "seed": 0,
            "grid": {"extent": [[0.0, 12.0]], "points": [64]},
            "family": {"kind": "disordered", "count": 3, "A": 1.0, "C": 1.0, "k": 3.0},
            "beta": {"values": [0.1, 0.1, 0.1]},
            "tasks": [{"task": "stummel"}],
        }
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path),
                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "task 'stummel' needs a support for every term" in result.stderr

    @staticmethod
    def _bounds_without_dense_path(monkeypatch, tmp_path, name, doc, limit):
        """Run `doc`'s bounds task with `lattice.DENSE_MAX_DIM` at `limit`,
        every band reduction, SVD and densified copy raising; return its
        report result and the non-Hermitian H(beta) and lambda it certified."""
        captured = []
        membership = analytic.gamma_membership
        monkeypatch.setattr(analytic, "gamma_membership",
                            lambda family, beta, lam: captured.append((family(beta), lam))
                            or membership(family, beta, lam))

        def dense(*args, **kwargs):
            raise AssertionError("dense path taken")
        for owner, attr in ((analytic, "_band_eigenvalues"), (analytic.la, "svdvals"),
                            (DiscreteOperator, "to_dense"), (sp.csr_matrix, "toarray")):
            monkeypatch.setattr(owner, attr, dense)
        monkeypatch.setattr(lattice, "DENSE_MAX_DIM", limit)
        path = write_scenario(tmp_path, doc, f"{name}.yaml")
        result = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / name)])
        assert result.exit_code == 0, result.output
        report = yaml.safe_load((tmp_path / name / "report.yaml").read_text())
        monkeypatch.undo()
        [(H, lam)] = captured
        assert not H.hermitian
        return report["tasks"][0]["result"], H, lam

    def test_bounds_non_hermitian_above_dense_limit_certifies(self, tmp_path, monkeypatch):
        # A complex coupling makes H(beta) non-Hermitian.  Its sigma_min is
        # certified from one band LU and one band Cholesky of the band of
        # (H - lambda)^H (H - lambda), so above the dense limit the task
        # still certifies, with no band reduction, no SVD and no densified
        # copy: bumps_1d (d = 160) with the limit at 100, below the dense
        # SVD's sigma_min.
        repo = Path(__file__).resolve().parents[1]
        doc = yaml.safe_load((repo / "scenarios" / "bumps_1d.yaml").read_text())
        doc["tasks"] = [{"task": "bounds"}]
        doc["beta"]["values"] = [[0.05, 0.0], [0.0, 0.02], [0.03, 0.0]]
        bounds, H, lam = self._bounds_without_dense_path(monkeypatch, tmp_path,
                                                         "bumps_1d", doc, 100)
        assert bounds["pass"] and bounds["sigma_min"] > 0
        assert H.dim == 160
        sigma = scipy.linalg.svdvals(H.to_dense() - lam * np.eye(H.dim))[-1]
        assert bounds["sigma_min"] <= sigma

    def test_bounds_non_hermitian_lattice_above_shipped_dense_limit_certifies(
            self, tmp_path, monkeypatch):
        # The same certificate on a d = 4100 lattice at the shipped limit.
        doc = {
            "schema": 1,
            "seed": 0,
            "grid": {"extent": [[0.0, 8.0]], "points": [4100]},
            "family": {"kind": "bump_lattice", "count": 2, "spacing": 3.0,
                       "origin": [2.5], "width": 0.4, "height": 1.0,
                       "support_halfwidth": 1.2},
            "beta": {"values": [[0.1, 0.0], [0.0, 0.05]], "p": "inf"},
            "tasks": [{"task": "bounds"}],
        }
        assert lattice.DENSE_MAX_DIM < 4100
        bounds, H, _ = self._bounds_without_dense_path(monkeypatch, tmp_path, "lattice_4100",
                                                       doc, lattice.DENSE_MAX_DIM)
        assert bounds["pass"] and bounds["sigma_min"] > 0
        assert H.dim == 4100

    def test_non_finite_potential_sample_is_usage_error(self, tmp_path):
        # The spike is centred on the grid node 2.0, where it samples +inf:
        # the run must stop before any H(beta) is formed.
        doc = {
            "schema": 1,
            "seed": 0,
            "grid": {"extent": [[0.0, 4.0]], "points": [41]},
            "family": {"kind": "explicit", "terms": [
                {"profile": {"kind": "power_spike", "center": [2.0], "alpha": 0.5}}]},
            "beta": {"values": [0.1]},
            "tasks": [{"task": "bounds"}, {"task": "track"}],
        }
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path),
                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "non-finite potential sample" in result.stderr

    @pytest.mark.parametrize("family", [
        {"kind": "explicit", "terms": [
            {"profile": {"kind": "gaussian", "center": [1.05], "width": 0}},
            {"profile": {"kind": "gaussian", "center": [1.05], "width": 0.5},
             "support": [[[0.0, 2.0]]]}]},
        {"kind": "bump_lattice", "count": 2, "spacing": 1.0, "origin": [1.0], "width": 0},
    ], ids=["explicit", "bump_lattice"])
    def test_zero_gaussian_width_is_usage_error(self, tmp_path, family):
        doc = {"schema": 1, "seed": 0, "grid": {"extent": [[0.0, 4.0]], "points": [41]},
               "family": family, "beta": {"values": [0.1, 0.1]},
               "tasks": [{"task": "bounds"}]}
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path),
                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "width must be finite and > 0" in result.stderr

    def test_explicit_constant_and_decay_tail_terms(self, tmp_path):
        # The serialized constant and decay_tail terms give the norms of the
        # same terms built in Python.
        doc = {
            "schema": 1,
            "seed": 0,
            "grid": {"extent": [[0.0, 8.0]], "points": [81]},
            "family": {"kind": "explicit", "terms": [
                {"profile": {"kind": "constant", "value": 0.5}, "support": [[[1.0, 3.0]]]},
                {"profile": {"kind": "decay_tail", "center": [5.0], "C": 0.8, "k": 3.0},
                 "support": [[[4.0, 6.0]]], "decay": [0.8, 3.0]}]},
            "beta": {"values": [0.2, 0.1]},
            "tasks": [{"task": "geometry"}, {"task": "stummel"}, {"task": "bounds"},
                      {"task": "track"}],
        }
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        result = run_cli(["run", "--scenario", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        family = potentials.PotentialFamily([
            potentials.PotentialTerm(profile=potentials.ConstantProfile(0.5),
                                     support=geometry.interval_set(1.0, 3.0)),
            potentials.PotentialTerm(profile=potentials.DecayTail((5.0,), 0.8, 3.0),
                                     support=geometry.interval_set(4.0, 6.0),
                                     center=(5.0,), decay=(0.8, 3.0))])
        beta = lattice.CouplingSeq((0.2, 0.1))
        sb = potentials.weighted_sum_stummel_bound(family, beta,
                                                   cli._stummel_params(family, {}))
        _, data = read_csv(out / "stummel_norms.csv")
        assert [row[1] for row in data] == list(sb.norms)
        report = yaml.safe_load((out / "report.yaml").read_text())
        geo, stummel, bounds, _ = (t["result"] for t in report["tasks"])
        assert (geo["n0"], geo["cells"]) == (0, 2)
        assert (stummel["bound"], stummel["direct"]) == (sb.bound, sb.direct)
        grid = lattice.Grid(extent=((0.0, 8.0),), points=(81,))
        system = lattice.AffineFamily.from_potentials(lattice.build_laplacian(grid), family)
        assert bounds["b"] == system.perturbation(np.array([0.2, 0.1], dtype=complex)).norm_bound()

    @pytest.mark.parametrize("override, message", [
        ("family.h0=[[0.0,0.0]]", "family.h0 must be a square matrix"),
        ("family.terms=[[[0.0,1.0,0.0],[1.0,0.0,0.0],[0.0,0.0,0.0]]]",
         "family.terms[0] shape differs from h0"),
    ], ids=["h0-not-square", "term-shape"])
    def test_matrix_family_shape_is_usage_error(self, tmp_path, override, message):
        path = write_scenario(tmp_path, TWO_LEVEL)
        result = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "out"),
                          "--override", override])
        assert result.exit_code == 2, result.output
        assert message in result.stderr

    def test_taylor_radius_below_sampling_radius_fails(self, tmp_path, monkeypatch):
        # A radius estimate inside the sampling circle |zeta| = r contradicts
        # the Cauchy samples, so the path invariant must fail.
        r = 0.3
        monkeypatch.setattr(analytic, "radius_of_convergence", lambda A: r / 2)
        doc = dict(TWO_LEVEL)
        doc["tasks"] = [{"task": "taylor", "direction": [1.0], "r": r, "M": 8,
                         "q": 32, "contour_nodes": 64}]
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path),
                          "--out", str(tmp_path / "out")])
        assert "FAIL taylor.path_valid" in result.output
        assert result.exit_code == 1

    def test_verify_fails_with_pole_inside_test_circle(self, tmp_path):
        # The Kato shift sits at 10i max(||H(beta0)||, 1) and ||V_t|| = 1,
        # so the records certify the radius 10 at beta0 = 0 and 11.5 at
        # beta0 = beta/2: r = 30 lies past both, every resolvent record
        # fails, and the run exits 1, not 3.
        doc = dict(TWO_LEVEL)
        doc["tasks"] = [{"task": "verify", "r": 30.0, "M": 8}]
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path),
                          "--out", str(tmp_path / "out")])
        assert "FAIL verify.analytic_family: 4 failed of 4" in result.output
        assert result.exit_code == 1

    def test_shipped_bumps_1d_taylor_takes_one_lu_pair_per_sample(self, tmp_path):
        # Guard for the shift-invert samples of the shipped taylor task: at
        # most two factorizations per computed sample, none by the block
        # contour path (64 per sample), read from its stderr note, which also
        # counts the reference vector's 64 contour nodes.
        repo = Path(__file__).resolve().parents[1]
        doc = yaml.safe_load((repo / "scenarios" / "bumps_1d.yaml").read_text())
        doc["tasks"] = [t for t in doc["tasks"] if t["task"] == "taylor"]
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        result = run_cli(["run", "--scenario", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        note = result.stderr.split("[0:taylor]")[1].splitlines()[0]
        fields = dict(part.strip().rsplit(" ", 1) for part in note.split(",")[1:])
        factorizations = int(note.split("factorizations ")[1].split(",")[0])
        shift_invert, block = int(fields["shift-invert samples"]), int(fields["block samples"])
        assert block == 0 and shift_invert == 136 - int(fields["mirrored samples"]) == 70
        assert factorizations <= 64 + 2 * (shift_invert + block)
        assert 0 < float(fields["r/r0"]) < 1 and 0 < float(fields["rho/margin"]) < 1
        r0 = yaml.safe_load((out / "report.yaml").read_text())["tasks"][0]["result"][
            "certified_radius"]
        assert 0.1 < r0 < 0.1004

    def test_verify_certificate_fails_just_past_certified_radius(self, tmp_path):
        # The stderr note names the smallest certified radius of the four
        # records; 1% past it fails the run (exit 1), 1% inside passes.
        repo = Path(__file__).resolve().parents[1]
        doc = yaml.safe_load((repo / "scenarios" / "bumps_1d.yaml").read_text())
        doc["tasks"] = [{"task": "verify", "r": 0.1}]
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 0
        note = result.stderr.split("worst r|V_t|/sigma_lb ")[1]
        ratio, radius = (float(x) for x in note.split(", certified radius "))
        assert 7000 < radius < 7100
        assert ratio == pytest.approx(0.1 / radius, rel=1e-5)
        for scale, code, status in ((1.01, 1, "FAIL"), (0.99, 0, "PASS")):
            doc["tasks"] = [{"task": "verify", "r": scale * radius}]
            path = write_scenario(tmp_path, doc)
            result = run_cli(["run", "--scenario", str(path),
                              "--out", str(tmp_path / "out")])
            assert result.exit_code == code
            assert f"{status} verify.analytic_family" in result.output

    def test_verify_forms_no_dense_array(self, tmp_path, monkeypatch):
        # The certificate reads Schur bounds of sparse matrices only.
        def no_array(*args, **kwargs):
            raise AssertionError("dense array built")

        monkeypatch.setattr(sp.csr_matrix, "toarray", no_array)
        monkeypatch.setattr(analytic, "_node_solves", no_array)
        doc = {**BUMPS, "beta": {"values": [[0.1, 0.05], 0.2, 0.3]},
               "tasks": [{"task": "verify", "r": 0.1}]}
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert "PASS verify.analytic_family: 0 failed of 4" in result.output

    def test_full_projector_above_dense_limit_is_usage_error(self, tmp_path, monkeypatch):
        # A complex coupling makes H(beta) non-Hermitian, so track takes the
        # full d x d projector: above the dense limit the run exits 2 before
        # it places its contour, so no LU is factored at all.
        monkeypatch.setattr(lattice, "DENSE_MAX_DIM", 100)
        shifts = []
        band_lu = analytic._band_lu
        monkeypatch.setattr(analytic, "_band_lu",
                            lambda ab, kl, ku, d, lams, s: shifts.extend(lams)
                            or band_lu(ab, kl, ku, d, lams, s))
        repo = Path(__file__).resolve().parents[1]
        doc = yaml.safe_load((repo / "scenarios" / "bumps_1d.yaml").read_text())
        doc["beta"]["values"] = [[0.05, 0.01], 0.04, 0.03]
        doc["tasks"] = [{"task": "track", "eig_index": 0}]
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "dimension 160 exceeds the dense limit 100" in result.stderr
        assert shifts == []

    @pytest.mark.parametrize("task, beta", [
        ({"task": "track", "eig_index": 0}, [[0.06, 0.01], 0.04, 0.03]),
        ({"task": "sweep", "direction": ["1j", 0, 0], "range": [0.0, 0.1], "steps": 3},
         [0.06, 0.04, 0.03]),
    ], ids=["track", "sweep"])
    def test_complex_step_above_dense_limit_exits_before_band(self, tmp_path, monkeypatch,
                                                              task, beta):
        # The step's H(beta) (the sweep's at its last target) is not
        # Hermitian: above the dense limit the task exits 2 before it
        # reduces H(0) to band eigenvalues to place its contour.
        monkeypatch.setattr(lattice, "DENSE_MAX_DIM", 100)
        calls = []
        band_eigenvalues = analytic._band_eigenvalues
        monkeypatch.setattr(analytic, "_band_eigenvalues",
                            lambda *a: calls.append(a) or band_eigenvalues(*a))
        repo = Path(__file__).resolve().parents[1]
        doc = yaml.safe_load((repo / "scenarios" / "bumps_1d.yaml").read_text())
        doc["beta"]["values"] = beta
        doc["tasks"] = [task]
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert (f"task {task['task']!r} needs the full projector of the non-Hermitian "
                "H(beta), and its dimension 160 exceeds the dense limit 100") in result.stderr
        assert calls == []

    def test_bounds_rejects_non_hermitian_h0(self, tmp_path):
        # The band eigenvalues read only the upper triangle of this H0 and
        # would certify a spectrum box it does not have.
        h0 = np.diag([0.0, 1.0, 2.0, 3.0])
        h0[0, 3] = 5.0
        doc = dict(TWO_LEVEL)
        doc["family"] = {"kind": "matrix", "h0": h0.tolist(),
                         "terms": [np.eye(4).tolist()]}
        doc["tasks"] = [{"task": "bounds"}]
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path),
                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "needs a Hermitian H0" in result.stderr

    def test_bounds_without_resolvent_point_fails_invariant(self, tmp_path):
        # beta_1 = 1e13 makes b = ||V(beta)|| above 1e12, so no lambda = i y
        # with y up to find_resolvent_point's cap of 1e12 has a positive
        # margin: the invariant fails (exit 1), the run does not raise.
        repo = Path(__file__).resolve().parents[1]
        doc = yaml.safe_load((repo / "scenarios" / "bumps_1d.yaml").read_text())
        doc["beta"]["values"] = [1e13, 0.0, 0.0]
        doc["tasks"] = [{"task": "bounds"}]
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        result = run_cli(["run", "--scenario", str(path), "--out", str(out)])
        assert "FAIL bounds.certified_point_resolvent" in result.output
        assert result.exit_code == 1
        bounds = yaml.safe_load((out / "report.yaml").read_text())["tasks"][0]["result"]
        assert bounds["b"] > 1e12 and not bounds["pass"]
        assert "cannot certify" in bounds["certification"]

    @pytest.mark.parametrize("points, task", [
        # The sweep refuses the non-Hermitian H(beta) of its last target.
        ([65, 65], {"task": "sweep", "direction": [0.1, "0.05j"], "range": [1.0, 1.0],
                    "steps": 1}),
    ], ids=["sweep-65x65"])
    def test_dense_input_above_limit_is_usage_error(self, tmp_path, monkeypatch,
                                                    points, task):
        # A complex coupling makes H(beta) non-Hermitian, which only the
        # dense paths take: above lattice.DENSE_MAX_DIM they exit 2 before
        # building the d x d array.
        def no_array(self, *args, **kwargs):
            raise AssertionError("dense array built")

        monkeypatch.setattr(sp.csr_matrix, "toarray", no_array)
        doc = {
            "schema": 1,
            "seed": 0,
            "grid": {"extent": [[0.0, 8.0]] * len(points), "points": points},
            "family": {"kind": "bump_lattice", "count": 2, "spacing": 3.0,
                       "origin": [2.5] + [4.0] * (len(points) - 1), "width": 0.4,
                       "height": 1.0, "support_halfwidth": 1.2},
            "beta": {"values": [[0.1, 0.0], [0.0, 0.05]], "p": "inf"},
            "tasks": [task],
        }
        path = write_scenario(tmp_path, doc)
        result = run_cli(["run", "--scenario", str(path),
                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "exceeds the dense limit 4096" in result.stderr

    def test_taylor_reports_computed_order(self, tmp_path):
        # M below 8 is raised to 8; the report names the order in taylor.csv.
        doc = dict(TWO_LEVEL)
        doc["tasks"] = [{"task": "taylor", "direction": [1.0], "r": 0.3, "M": 5,
                         "q": 32, "contour_nodes": 64}]
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        result = run_cli(["run", "--scenario", str(path), "--out", str(out)])
        assert result.exit_code == 0
        _, rows = read_csv(out / "taylor.csv")
        report = yaml.safe_load((out / "report.yaml").read_text())
        assert report["tasks"][0]["result"]["M"] == len(rows) - 1 == 8
        assert report["tasks"][0]["result"]["certified_radius"] == pytest.approx(0.5)
        # The stderr line carries the sample counters.  22 of the 40 samples
        # are computed, 18 mirrored (q = 32, 8 test points).  r = 0.3 lies
        # inside r0 = 0.5, so each computed sample is shift-invert: two LUs,
        # and two solves at the first shift plus at least two, at most
        # eight, at the second.  The Hermitian reference vector adds one
        # shift-invert LU and two columns.
        assert "factorizations 45, rhs columns " in result.stderr
        rhs = int(result.stderr.split("rhs columns ")[1].split(",")[0])
        assert 2 + 4 * 22 <= rhs <= 2 + 10 * 22
        assert "r/r0 0.6, rho/margin " in result.stderr
        assert "shift-invert samples 22, block samples 0," in result.stderr
        assert "mirrored samples 18" in result.stderr
        assert "block defect/tol" in result.stderr and "sigma2/sigma1" in result.stderr


def _shipped_task(tmp_path, scenario, task, **fields):
    """A shipped scenario cut to its first `task`, with `fields` set on it."""
    repo = Path(__file__).resolve().parents[1]
    doc = yaml.safe_load((repo / "scenarios" / f"{scenario}.yaml").read_text())
    doc["tasks"] = [{**next(t for t in doc["tasks"] if t["task"] == task), **fields}]
    return write_scenario(tmp_path, doc, name=f"{scenario}-{task}.yaml")


class TestTaskFields:
    """A task's coupling direction and eigenvalue index are checked against
    the family, a taylor or verify radius r is checked to be positive and
    finite, and a taylor q to be an integer above M, before any contour is
    placed; a numeric field that is null or no number, a sweep range that is
    not two finite numbers and a zero taylor direction are usage errors that
    name the field."""

    @pytest.mark.parametrize("scenario, task, fields, named", [
        ("bumps_1d", "taylor", {"direction": [1.0, 0.0, 0.0, 0.0]}, "direction"),
        ("bumps_1d", "taylor", {"direction": [[1.0, 0.0, 0.0]]}, "direction"),
        ("bumps_1d", "taylor", {"direction": 1.0}, "direction"),
        ("sweep_1d", "sweep", {"axis": 0}, "axis"),
        ("sweep_1d", "sweep", {"axis": 5}, "axis"),
        ("bumps_1d", "track", {"eig_index": 160}, "eig_index"),
        ("two_level", "track", {"eig_index": -1}, "eig_index"),
        ("two_level", "taylor", {"eig_index": 2}, "eig_index"),
        # two_level's taylor task has M = 16: q nodes alias unless q > M.
        ("two_level", "taylor", {"q": 0}, "q"),
        ("two_level", "taylor", {"q": -4}, "q"),
        ("two_level", "taylor", {"q": 16}, "q"),
        # A null or non-numeric field.
        ("two_level", "taylor", {"M": None}, "M"),
        ("two_level", "sweep", {"steps": None}, "steps"),
        ("two_level", "taylor", {"q": "abc"}, "q"),
        ("two_level", "track", {"contour_nodes": "abc"}, "contour_nodes"),
        # A sweep range that is not two finite numbers, a zero taylor direction.
        ("two_level", "sweep", {"range": None}, "range"),
        ("two_level", "sweep", {"range": "abc"}, "range"),
        ("two_level", "sweep", {"range": [1.0]}, "range"),
        ("two_level", "sweep", {"range": [0.0, math.nan]}, "range"),
        ("two_level", "taylor", {"direction": [0.0]}, "direction"),
    ] + [("bumps_1d", task, {"r": r}, "r") for task in ("taylor", "verify")
         for r in (0.0, -0.1, math.nan, math.inf)],
        ids=["long-direction", "nested-direction", "scalar-direction", "axis-0", "axis-past-n",
             "eig-index-past-d", "negative-eig-index", "taylor-eig-index-past-d",
             "taylor-q-zero", "taylor-q-negative", "taylor-q-at-M", "taylor-M-null",
             "sweep-steps-null", "taylor-q-word", "track-contour-nodes-word",
             "sweep-range-null", "sweep-range-word", "sweep-range-one", "sweep-range-nan",
             "taylor-direction-zero"]
        + [f"{task}-r-{name}" for task in ("taylor", "verify")
           for name in ("zero", "negative", "nan", "inf")])
    def test_out_of_range_field_is_usage_error(self, tmp_path, scenario, task, fields,
                                               named):
        path = _shipped_task(tmp_path, scenario, task, **fields)
        result = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"scenario error: task field {named}:" in result.stderr

    @pytest.mark.parametrize("scenario, task, short, full, table", [
        ("bumps_1d", "taylor", {"direction": [1.0]}, {"direction": [1.0, 0.0, 0.0]},
         "taylor.csv"),
        ("sweep_1d", "sweep", {"direction": [1.0]}, {"axis": 1}, "sweep.csv"),
    ], ids=["taylor", "sweep"])
    def test_short_direction_is_zero_padded(self, tmp_path, scenario, task, short, full,
                                            table):
        outputs = []
        for name, fields in (("short", short), ("full", full)):
            (tmp_path / name).mkdir()
            path = _shipped_task(tmp_path / name, scenario, task, **fields)
            out = tmp_path / name / "out"
            result = run_cli(["run", "--scenario", str(path), "--out", str(out)])
            assert result.exit_code == 0, result.output
            outputs.append((out / table).read_bytes())
        assert outputs[0] == outputs[1]


DISORDERED = {
    "schema": 1,
    "seed": 0,
    "grid": {"extent": [[0.0, 12.0]], "points": [64]},
    "family": {"kind": "disordered", "count": 3, "A": 1.0, "C": 1.0, "k": 3.0,
               # Read by the explicit kind only: one 2-D term.
               "terms": [{"profile": {"kind": "gaussian", "center": [1.0, 1.0],
                                      "width": 0.5},
                          "support": [[[0.0, 2.0], [0.0, 2.0]]]}]},
    "beta": {"values": [0.1, 0.1, 0.1]},
    "tasks": [{"task": "bounds"}],
}


class TestFamilyFields:
    @pytest.mark.parametrize("doc, override, named", [
        ("bumps_1d", "family.count=null", "count"),
        ("bumps_1d", "family.origin=null", "origin"),
        ("bumps_1d", "family.spacing=[1]", "spacing"),
        ("bumps_1d", "family.width=abc", "width"),
        ("bumps_1d", "family.support_halfwidth=null", "support_halfwidth"),
        # One number per grid axis: bumps_1d has a 1-D grid.
        ("bumps_1d", "family.origin=[3.0,0.0]", "origin"),
        ("bumps_1d", "family.origin=[[3.0]]", "origin"),
        ("bumps_1d", "family.origin=[]", "origin"),
        ("disordered", "family.A=null", "A"),
        ("disordered", "family.k=abc", "k"),
        # m [lo, hi] pairs, m the grid's axes.
        ("disordered", "family.box=[0.0,4.0]", "box"),
        ("disordered", "family.box=[[0.0,4.0,8.0]]", "box"),
        ("disordered", "family.box=[[0.0,4.0],[0.0,4.0]]", "box"),
        ("disordered", "family.kind=explicit", "terms"),
    ], ids=["count-null", "origin-null", "spacing-list", "width-word", "halfwidth-null",
            "origin-two-axes", "origin-nested", "origin-empty", "disordered-A-null",
            "disordered-k-word", "disordered-box-flat", "disordered-box-triple",
            "disordered-box-two-axes", "explicit-terms-two-axes"])
    def test_invalid_family_field_is_usage_error(self, tmp_path, doc, override, named):
        # Each exits 2 before any task, naming the field.
        if doc == "bumps_1d":
            path = Path(__file__).resolve().parents[1] / "scenarios" / "bumps_1d.yaml"
        else:
            path = write_scenario(tmp_path, DISORDERED)
        result = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "out"),
                          "--override", override])
        assert result.exit_code == 2, result.output
        assert f"scenario error: family field {named}:" in result.stderr


BUMPS = {
    "schema": 1,
    "seed": 0,
    "grid": {"extent": [[0.0, 9.0]], "points": [64]},
    "family": {"kind": "bump_lattice", "count": 3, "spacing": 2.0,
               "origin": [2.5], "width": 0.4, "height": 1.0,
               "support_halfwidth": 1.5},
    "beta": {"values": [0.1, 0.2, 0.3]},
    "tasks": [],
}


class TestHamiltonianHermitianFlag:
    @pytest.mark.parametrize("doc", [BUMPS, TWO_LEVEL], ids=["bump_lattice", "matrix"])
    def test_real_beta_is_hermitian(self, tmp_path, doc):
        ctx = RunContext.from_document(doc, tmp_path)
        H = ctx.hamiltonian(ctx.beta_vector())
        assert H.hermitian
        assert np.array_equal(H.to_dense(), H.to_dense().conj().T)

    @pytest.mark.parametrize("doc", [BUMPS, TWO_LEVEL], ids=["bump_lattice", "matrix"])
    def test_complex_beta_is_not_hermitian(self, tmp_path, doc):
        ctx = RunContext.from_document(doc, tmp_path)
        assert not ctx.hamiltonian(ctx.beta_vector() * (1 + 0.5j)).hermitian

    def test_non_hermitian_term(self, tmp_path):
        doc = dict(TWO_LEVEL)
        doc["family"] = dict(TWO_LEVEL["family"], terms=[[[0.0, 1.0], [0.0, 0.0]]])
        ctx = RunContext.from_document(doc, tmp_path)
        assert not ctx.hamiltonian(ctx.beta_vector()).hermitian


class TestHamiltonianReuse:
    """`RunContext.hamiltonian` returns one operator for a repeated beta,
    and each Hermitian operator's band is reduced once; nothing is kept past
    one `execute_scenario`."""

    def test_same_operator_for_a_bit_identical_beta(self, tmp_path):
        ctx = RunContext.from_document(BUMPS, tmp_path)
        beta = ctx.beta_vector()
        H = ctx.hamiltonian(beta)
        assert ctx.hamiltonian(beta.copy()) is H
        other = ctx.hamiltonian(2 * beta)
        assert other is not H and ctx.hamiltonian(2 * beta) is other
        # One entry: beta again after another beta builds a new operator,
        # and so does a new context.
        again = ctx.hamiltonian(beta)
        assert again is not H and np.array_equal(again.to_dense(), H.to_dense())
        assert RunContext.from_document(BUMPS, tmp_path).hamiltonian(beta) is not again

    @staticmethod
    def _record_reductions(monkeypatch):
        """Every LAPACK band reduction and the matrix each `_band_eigenvalues`
        call reduced (kept alive, so no two share an id)."""
        lapack_calls, matrices = [], []
        eigvals_banded = analytic.la.eigvals_banded
        band_eigenvalues = analytic._band_eigenvalues
        monkeypatch.setattr(analytic.la, "eigvals_banded",
                            lambda *a, **k: lapack_calls.append(1) or eigvals_banded(*a, **k))
        monkeypatch.setattr(analytic, "_band_eigenvalues",
                            lambda mat, d: matrices.append(mat) or band_eigenvalues(mat, d))
        return lapack_calls, matrices

    @staticmethod
    def _scenario(monkeypatch, scenario):
        """A shipped scenario, or a perfbench workload's at seed 3."""
        repo = Path(__file__).resolve().parents[1]
        if scenario in ("sparse_track_2d", "certify_2d"):
            monkeypatch.syspath_prepend(str(repo / "perfbench"))
            import workloads
            (_, doc), = workloads.scenarios(scenario, 3, repo)
            return doc
        return load_scenario(repo / "scenarios" / f"{scenario}.yaml")

    # None of these runs a stummel task, whose Gauss-Jacobi rule calls
    # eigvals_banded too.  The Laplacian H0 and H(0) of the grid scenarios
    # carry the closed-form spectrum and are never reduced.
    @pytest.mark.parametrize("scenario, reductions", [
        ("sparse_track_2d", 2), ("sweep_1d", 8), ("two_level", 13)],
        ids=["sparse_track_2d", "sweep_1d", "two_level"])
    def test_band_reductions_per_run(self, tmp_path, monkeypatch, scenario, reductions):
        doc = self._scenario(monkeypatch, scenario)
        assert all(t["task"] != "stummel" for t in doc["tasks"])
        lapack_calls, matrices = self._record_reductions(monkeypatch)
        for run in range(2):
            # A second run in the same process reduces as often as the first.
            execute_scenario(doc, tmp_path / f"out{run}")
            assert len(lapack_calls) == reductions
            assert len({id(mat) for mat in matrices}) == len(matrices) == reductions
            lapack_calls.clear()
            matrices.clear()

    # These run a stummel task, so only `_band_eigenvalues` calls count.  The
    # bounds task reduces no band (H0 has the closed form, and sigma_min of
    # H(beta) - lambda comes from a band Cholesky).  bumps_1d's track task
    # reduces H(beta), and its taylor task, at beta = 0, none.
    @pytest.mark.parametrize("scenario, reductions", [("certify_2d", 0), ("bumps_1d", 1)],
                             ids=["certify_2d", "bumps_1d"])
    def test_band_reductions_beside_a_stummel_task(self, tmp_path, monkeypatch, scenario,
                                                   reductions):
        doc = self._scenario(monkeypatch, scenario)
        assert any(t["task"] == "stummel" for t in doc["tasks"])
        _, matrices = self._record_reductions(monkeypatch)
        for run in range(2):
            execute_scenario(doc, tmp_path / f"out{run}")
            assert len({id(mat) for mat in matrices}) == len(matrices) == reductions
            matrices.clear()


def test_stummel_task_computes_each_norm_once(tmp_path, monkeypatch):
    # One sampling serves the per-term norms and the direct norm of the
    # sum: each term is evaluated once per probe whose node box one of its
    # support boxes meets, and at no other probe.
    calls = []
    sample = potentials._sample_terms

    def counted(table, terms, pts):
        calls.extend(np.ravel(terms).tolist())
        return sample(table, terms, pts)

    monkeypatch.setattr(potentials, "_sample_terms", counted)
    doc = dict(BUMPS, tasks=[{"task": "stummel", "probe_density": 5,
                              "quad_order": 8}])
    report = execute_scenario(doc, tmp_path)
    assert report.passed

    # Oracle: pairwise Box.intersects of each support box with the bounding
    # box of each probe's quadrature nodes.
    terms = RunContext.from_document(doc, tmp_path).family.terms
    union = SupportSet(tuple(b for t in terms for b in t.support.boxes))
    offsets, _, _ = potentials._ball_rule(potentials.StummelParams(rho=1.5, m=1,
                                                                   quad_order=8))
    meeting = 0
    for x in potentials.make_probe_grid(union, margin=1.0, density=5):
        nodes = x + offsets
        node_box = Box(tuple(nodes.min(axis=0)), tuple(nodes.max(axis=0)))
        meeting += sum(any(b.intersects(node_box) for b in t.support.boxes)
                       for t in terms)
    assert len(calls) == meeting
    assert meeting < doc["family"]["count"] * 5


def test_table_budget_changes_no_output_byte(tmp_path, monkeypatch):
    # With one query box per block of `geometry._meeting_blocks`, every
    # Stummel reach table and every n0 box block splits; the geometry and
    # stummel results and tables of certify_2d keep their bytes.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    doc = workloads.certify_2d(3)
    doc["tasks"] = [t for t in doc["tasks"] if t["task"] in ("geometry", "stummel")]
    outputs = []
    for name, budget in (("default", geometry._TABLE_ENTRIES), ("split", 1)):
        monkeypatch.setattr(geometry, "_TABLE_ENTRIES", budget)
        report = execute_scenario(doc, tmp_path / name)
        outputs.append((report.tasks, [(tmp_path / name / f).read_bytes()
                                       for f in ("geometry_cells.csv", "stummel_norms.csv")]))
    assert outputs[0] == outputs[1]


def test_stummel_sum_above_bound_fails_invariant(tmp_path, monkeypatch):
    # n1 = 0 stands in for a geometry count that misses an overlap: the
    # bound collapses to 0 below the direct norm, and the invariant, not the
    # library, decides (exit 1 with a FAIL line, not 3).
    monkeypatch.setattr(potentials.PotentialFamily, "n1", lambda self, radius=1.0: 0)
    doc = dict(BUMPS, tasks=[{"task": "stummel", "probe_density": 5,
                              "quad_order": 8}])
    path = write_scenario(tmp_path, doc)
    result = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert "FAIL stummel.sum_bound_dominates" in result.output
    assert result.exit_code == 1


class TestSweepMonotoneAndTaylorConsistency:
    def _bump_doc(self):
        return {
            "schema": 1,
            "seed": 2,
            "grid": {"extent": [[0.0, 6.0]], "points": [80]},
            "family": {"kind": "bump_lattice", "count": 1, "spacing": 3.0,
                       "origin": [3.0], "width": 0.5, "height": 1.0,
                       "support_halfwidth": 1.5},
            "beta": {"values": [1.0]},
            "tasks": [],
        }

    def test_positive_bump_monotone_energy(self, tmp_path):
        doc = self._bump_doc()
        doc["tasks"] = [{"task": "sweep", "axis": 1, "range": [0.0, 1.0],
                         "steps": 21, "eig_index": 0}]
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        result = run_cli(["sweep", "--scenario", str(path), "--out", str(out)])
        assert result.exit_code == 0
        _, data = read_csv(out / "sweep.csv")
        energies = [row[1] for row in data]
        assert len(energies) == 21
        assert all(e2 > e1 for e1, e2 in zip(energies, energies[1:]))
        # Dense eigensolver spot-check at 5 indices.
        from specpert.geometry import interval_set
        from specpert.lattice import CouplingSeq, Grid, assemble_hamiltonian, build_laplacian
        from specpert.potentials import GaussianBump, PotentialFamily, PotentialTerm

        grid = Grid(extent=((0.0, 6.0),), points=(80,))
        h0 = build_laplacian(grid)
        fam = PotentialFamily([PotentialTerm(
            profile=GaussianBump((3.0,), 0.5, 1.0),
            support=interval_set(1.5, 4.5), center=(3.0,))])
        for idx in (0, 5, 10, 15, 20):
            s = data[idx][0]
            h = assemble_hamiltonian(h0, fam, CouplingSeq((s,)))
            dense = np.linalg.eigvalsh(h.to_dense())[0]
            assert data[idx][1] == pytest.approx(dense, abs=1e-8)

    def test_taylor_reproduces_sweep_on_half_radius(self, tmp_path):
        # Eight-coupling dense direction: the sweep table and the Taylor
        # series of the same direction must agree on |zeta| <= R/2.
        direction = [1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]
        doc = {
            "schema": 1,
            "seed": 3,
            "grid": {"extent": [[0.0, 26.0]], "points": [120]},
            "family": {"kind": "bump_lattice", "count": 8, "spacing": 3.0,
                       "origin": [2.0], "width": 0.4, "height": 1.0,
                       "support_halfwidth": 1.2},
            "beta": {"values": [0.0] * 8},
            "tolerances": {"projector_defect": 1e-6},
            "tasks": [
                {"task": "sweep", "direction": direction,
                 "range": [0.0, 0.05], "steps": 6, "eig_index": 0,
                 "contour_nodes": 128},
                {"task": "taylor", "direction": direction, "r": 0.1,
                 "M": 10, "q": 128, "eig_index": 0},
            ],
        }
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        result = run_cli(["run", "--scenario", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        # r = 0.1 lies past the certified radius (about 0.021): every computed
        # sample takes the block contour path, and the series is still right.
        r0 = yaml.safe_load((out / "report.yaml").read_text())["tasks"][1]["result"][
            "certified_radius"]
        assert 0 < r0 < 0.1
        assert "shift-invert samples 0, block samples 70," in result.stderr
        _, sweep_rows = read_csv(out / "sweep.csv")
        _, taylor_rows = read_csv(out / "taylor.csv")
        coeffs = np.array([row[1] + 0j for row in taylor_rows])
        for s, re_e, *_ in sweep_rows:
            series = sum(c * s**m for m, c in enumerate(coeffs)).real
            assert series == pytest.approx(re_e, abs=1e-6)


class TestVerbsAndSchema:
    def test_show_schema(self):
        result = run_cli(["show-schema"])
        assert result.exit_code == 0
        schema = yaml.safe_load(result.output)
        assert schema["required"] == ["schema", "seed", "family", "beta", "tasks"]

    def test_verify_verb_filters_tasks(self, tmp_path):
        doc = dict(TWO_LEVEL)
        doc["tasks"] = [{"task": "track"}, ]
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        result = run_cli(["verify", "--scenario", str(path), "--out", str(out)])
        assert result.exit_code == 0
        report = yaml.safe_load((out / "report.yaml").read_text())
        assert report["tasks"] == []  # no verify task present

    def test_out_env_var(self, tmp_path, monkeypatch):
        path = write_scenario(tmp_path, TWO_LEVEL)
        outdir = tmp_path / "envout"
        monkeypatch.setenv("SPECPERT_OUT", str(outdir))
        result = run_cli(["run", "--scenario", str(path)])
        assert result.exit_code == 0
        assert (outdir / "report.yaml").exists()


# A 2D bump lattice with d = 15 x 14 = 210 and band width 15.
LATTICE_2D = {
    "schema": 1,
    "seed": 3,
    "grid": {"extent": [[0.0, 7.0], [0.0, 6.5]], "points": [15, 14]},
    "family": {"kind": "bump_lattice", "count": 3, "spacing": 1.75,
               "origin": [1.75, 2.99], "width": 0.66, "height": 0.95,
               "support_halfwidth": 1.5},
    "beta": {"values": [0.056, 0.058, 0.024], "p": "inf"},
    "tasks": [
        {"task": "track", "eig_index": 0},
        {"task": "sweep", "axis": 1, "range": [0.0, 0.3], "steps": 2, "eig_index": 0},
    ],
}


def test_lattice_track_and_sweep_build_no_full_projector(tmp_path, monkeypatch):
    # Every H(beta) of the 15 x 14 lattice is Hermitian, so track and sweep
    # take the filter path: the run passes with the full projector disabled,
    # and its stderr counts no d x d projector.
    def no_full_projector(*args, **kwargs):
        raise AssertionError("riesz_projector called")

    monkeypatch.setattr(analytic, "riesz_projector", no_full_projector)
    path = write_scenario(tmp_path, LATTICE_2D)
    result = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    lines = [line for line in result.stderr.splitlines() if "[" in line]
    assert len(lines) == 2 and all("full-P 0," in line for line in lines)


def test_zero_coupled_non_hermitian_term_keeps_the_band_path(tmp_path, monkeypatch):
    # The second term [[0, 1], [0, 0]] is not Hermitian, but its coupling is
    # 0: H(0) and H(beta) are Hermitian, so the track task places its contour
    # from the band and tracks by shift-invert, with no full projector and
    # no dense eigenvalue call.
    def no_dense(*args, **kwargs):
        raise AssertionError("dense call on a Hermitian H")

    monkeypatch.setattr(analytic, "riesz_projector", no_dense)
    monkeypatch.setattr(np.linalg, "eigvals", no_dense)
    doc = dict(TWO_LEVEL)
    doc["family"] = {"kind": "matrix", "h0": [[0.0, 0.0], [0.0, 1.0]],
                     "terms": [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]]}
    doc["beta"] = {"values": [0.3, 0.0], "p": "inf"}
    doc["tasks"] = [{"task": "track", "eig_index": 0}]
    out = tmp_path / "out"
    result = run_cli(["run", "--scenario", str(write_scenario(tmp_path, doc)),
                      "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "full-P 0," in result.stderr
    _, rows = read_csv(out / "track.csv")
    assert rows[0][0] == pytest.approx((1 - math.sqrt(1 + 4 * 0.3**2)) / 2, abs=1e-12)


# A 2D bump lattice on 24 x 24 nodes: d = 576, above the old probe scan's
# d = 400 switch to ARPACK, with a bounds task only.
LATTICE_24 = {
    "schema": 1,
    "seed": 3,
    "grid": {"extent": [[0.0, 12.0], [0.0, 12.0]], "points": [24, 24]},
    "family": {"kind": "bump_lattice", "count": 4, "spacing": 2.5,
               "origin": [2.25, 5.7], "width": 0.5, "height": 1.0,
               "support_halfwidth": 1.2},
    "beta": {"values": [0.05, -0.03, 0.04, 0.02], "p": "inf"},
    "tasks": [{"task": "bounds"}],
}


class TestBoundsTask:
    """The `bounds` certificate from (a, b) = (0, ||V(beta)||) and the band
    spectrum of H0."""

    @pytest.mark.parametrize("doc", [BUMPS, TWO_LEVEL, LATTICE_24],
                             ids=["bump_lattice", "matrix", "lattice_24"])
    def test_inputs_against_dense_oracles(self, tmp_path, doc):
        ctx = RunContext.from_document(doc, tmp_path)
        result = task_bounds(ctx, {})
        V = ctx.system.perturbation(ctx.beta_vector()).to_dense()
        E = np.linalg.eigvalsh(ctx.system.h0.to_dense())
        assert result["a"] == 0.0
        assert result["b"] == pytest.approx(np.linalg.norm(V, 2), rel=1e-14)
        assert result["E_min"] < E[0] and E[-1] < result["E_max"]
        H = ctx.hamiltonian(ctx.beta_vector()).to_dense()
        lam = complex(*result["lambda"])
        smin = np.linalg.svd(H - lam * np.eye(len(H)), compute_uv=False)[-1]
        assert 0.0 < result["sigma_min"] <= smin
        assert result["margin"] > 0.0 and result["pass"]

    def test_hermitian_runs_build_no_dense_array(self, tmp_path, monkeypatch):
        # bumps_1d (d = 160) and a d = 576 lattice: every H(beta) is
        # Hermitian, so the task runs on band eigenvalues alone.
        def no_dense(*args, **kwargs):
            raise AssertionError("dense spectral call")

        for owner, name in ((scipy.linalg, "svdvals"), (np.linalg, "eigvalsh"),
                            (np.linalg, "eigh"), (DiscreteOperator, "to_dense")):
            monkeypatch.setattr(owner, name, no_dense)
        repo = Path(__file__).resolve().parents[1]
        bumps = yaml.safe_load((repo / "scenarios" / "bumps_1d.yaml").read_text())
        bumps["tasks"] = [{"task": "bounds"}]
        for name, doc in (("bumps_1d", bumps), ("lattice_24", LATTICE_24)):
            path = write_scenario(tmp_path, doc, f"{name}.yaml")
            result = run_cli(["run", "--scenario", str(path),
                              "--out", str(tmp_path / name)])
            assert result.exit_code == 0, result.output
            assert "PASS bounds.certified_point_resolvent" in result.output


class TestDeterminism:
    def test_identical_outputs(self, tmp_path):
        doc = dict(TWO_LEVEL)
        doc["tasks"] = [
            {"task": "track", "eig_index": 0, "contour_nodes": 64},
            {"task": "sweep", "axis": 1, "range": [0.0, 0.3], "steps": 4},
        ]
        path = write_scenario(tmp_path, doc)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = run_cli(["run", "--scenario", str(path), "--out", str(out)])
            assert result.exit_code == 0
            outs.append(out)
        for fname in ("report.yaml", "track.csv", "sweep.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_taylor_outputs_independent_of_blas_threads(self, tmp_path):
        """Every output of the shipped tasks is the same bytes with one BLAS
        thread and with the default: the whole bumps_1d scenario (d = 160),
        sweep_1d, a 15 x 14 lattice (d = 210) with track and sweep, and a
        24 x 24 lattice (d = 576) with bounds."""
        repo = Path(__file__).resolve().parents[1]
        docs = {
            "bumps_1d": yaml.safe_load((repo / "scenarios" / "bumps_1d.yaml").read_text()),
            "sweep_1d": yaml.safe_load((repo / "scenarios" / "sweep_1d.yaml").read_text()),
            "lattice_2d": LATTICE_2D,
            "lattice_24": LATTICE_24,
        }
        base_env = {k: v for k, v in os.environ.items()
                    if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}
        base_env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")]))
        for scenario, doc in docs.items():
            path = write_scenario(tmp_path, doc, f"{scenario}.yaml")
            outs = []
            for name, extra in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
                out = tmp_path / f"{scenario}-{name}"
                proc = subprocess.run(
                    [sys.executable, "-m", "specpert.cli", "run", "--scenario", str(path),
                     "--out", str(out)],
                    env={**base_env, **extra}, capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, proc.stderr
                outs.append(out)
            names = sorted(p.name for p in outs[0].iterdir())
            assert names == sorted(p.name for p in outs[1].iterdir())
            assert "report.yaml" in names
            for fname in names:
                assert ((outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()), \
                    f"{scenario}/{fname}"

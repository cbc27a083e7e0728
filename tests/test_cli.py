"""CLI: scenario validation, task execution, exit codes, determinism."""

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from specpert import potentials
from specpert.cli import (RunContext, RunReport, ScenarioError, build_family,
                          execute_scenario, load_scenario, main)
from specpert.lattice import CouplingSeq, Grid

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

    def test_bad_override(self, tmp_path):
        path = write_scenario(tmp_path, TWO_LEVEL)
        with pytest.raises(ScenarioError):
            load_scenario(path, ("notakeyvalue",))

    def test_unknown_task_rejected(self, tmp_path):
        doc = dict(TWO_LEVEL)
        doc["tasks"] = [{"task": "dance"}]
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ScenarioError):
            load_scenario(path)


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
        doc = {
            "schema": 1,
            "seed": 0,
            "grid": {"extent": [[0.0, 9.0]], "points": [64]},
            "family": {"kind": "bump_lattice", "count": 3, "spacing": 3.0,
                       "origin": [1.0], "width": 0.3, "height": 1.0,
                       "support_halfwidth": 1.0},
            "beta": {"values": [0.1, 0.1, 0.1]},
            "tasks": [{"task": "geometry"}],
        }
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        result = run_cli(["run", "--scenario", str(path), "--out", str(out)])
        assert result.exit_code == 0
        report = yaml.safe_load((out / "report.yaml").read_text())
        geo = report["tasks"][0]["result"]
        assert geo["n0"] == 0
        assert geo["cells"] == 3  # refinement is the identity

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


def make_context(tmp_path, doc):
    grid = None
    if "grid" in doc:
        grid = Grid(extent=tuple(tuple(e) for e in doc["grid"]["extent"]),
                    points=tuple(doc["grid"]["points"]))
    family = build_family(doc["family"], np.random.default_rng(doc["seed"]))
    return RunContext(scenario=doc, grid=grid, family=family,
                      beta=CouplingSeq(tuple(doc["beta"]["values"])),
                      rng=np.random.default_rng(doc["seed"]), tol={},
                      out=tmp_path, report=RunReport(provenance={}))


class TestHamiltonianHermitianFlag:
    @pytest.mark.parametrize("doc", [BUMPS, TWO_LEVEL], ids=["bump_lattice", "matrix"])
    def test_real_beta_is_hermitian(self, tmp_path, doc):
        ctx = make_context(tmp_path, doc)
        H = ctx.hamiltonian(ctx.beta_vector())
        assert H.hermitian
        assert np.array_equal(H.to_dense(), H.to_dense().conj().T)

    @pytest.mark.parametrize("doc", [BUMPS, TWO_LEVEL], ids=["bump_lattice", "matrix"])
    def test_complex_beta_is_not_hermitian(self, tmp_path, doc):
        ctx = make_context(tmp_path, doc)
        assert not ctx.hamiltonian(ctx.beta_vector() * (1 + 0.5j)).hermitian

    def test_non_hermitian_term(self, tmp_path):
        doc = dict(TWO_LEVEL)
        doc["family"] = dict(TWO_LEVEL["family"], terms=[[[0.0, 1.0], [0.0, 0.0]]])
        ctx = make_context(tmp_path, doc)
        assert not ctx.hamiltonian(ctx.beta_vector()).hermitian


def test_stummel_task_computes_each_norm_once(tmp_path, monkeypatch):
    calls = []
    norm = potentials.stummel_class_norm

    def counted(v, params):
        calls.append(v)
        return norm(v, params)

    monkeypatch.setattr(potentials, "stummel_class_norm", counted)
    doc = dict(BUMPS, tasks=[{"task": "stummel", "probe_density": 5,
                              "quad_order": 8}])
    report = execute_scenario(doc, tmp_path)
    assert report.passed
    assert len(calls) == doc["family"]["count"] + 1


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

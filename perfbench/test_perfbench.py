"""Tests of the benchmark itself: `python3 -m pytest perfbench` from the repo root."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import oracles  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from specpert import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in line["metrics"].items()}
    for m in line["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"]


def test_workload_inputs_follow_the_seed():
    assert workloads.certify_2d(5) == workloads.certify_2d(5)
    assert workloads.certify_2d(5) != workloads.certify_2d(6)
    assert workloads.sparse_track_2d(5) == workloads.sparse_track_2d(5)
    shipped = workloads.scenarios("shipped_1d", 9, ROOT)
    assert [name for name, _ in shipped] == list(workloads.SHIPPED)
    assert all(doc["seed"] == 9 for _, doc in shipped)


def _run(doc, out):
    report = cli.execute_scenario(doc, out)
    return report, oracles.expect(oracles.System(doc), doc)


def _failures(doc, expected, report, out):
    return [o for o in oracles.task_outcomes(doc, report, oracles.check(doc, expected, report, out))
            if o is not None]


def _perturb_csv(path: Path, row: int, col: int, delta: float):
    lines = path.read_text().splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    cells = lines[data[row]].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[data[row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _shipped(name):
    return dict(workloads.scenarios("shipped_1d", 1, ROOT, smoke=True))[name]


def test_track_and_sweep_oracles_catch_a_perturbed_eigenvalue(tmp_path):
    doc = workloads.sparse_track_2d(2, smoke=True)
    report, expected = _run(doc, tmp_path)
    assert _failures(doc, expected, report, tmp_path) == []
    report.tasks[0]["result"]["E"][0] += 1e-6
    assert len(_failures(doc, expected, report, tmp_path)) == 1
    report.tasks[0]["result"]["E"][0] -= 1e-6
    _perturb_csv(tmp_path / "sweep.csv", row=1, col=1, delta=1e-6)
    assert len(_failures(doc, expected, report, tmp_path)) == 1


@pytest.mark.parametrize("row", [0, 1])
def test_taylor_oracle_catches_a_perturbed_coefficient(tmp_path, row):
    doc = _shipped("bumps_1d")
    doc["tasks"] = [t for t in doc["tasks"] if t["task"] == "taylor"]
    report, expected = _run(doc, tmp_path)
    assert _failures(doc, expected, report, tmp_path) == []
    _perturb_csv(tmp_path / "taylor.csv", row=row, col=1, delta=1e-6)
    assert len(_failures(doc, expected, report, tmp_path)) == 1


def test_two_level_oracle_catches_a_wrong_energy_or_radius(tmp_path):
    doc = _shipped("two_level")
    report, expected = _run(doc, tmp_path)
    assert _failures(doc, expected, report, tmp_path) == []
    assert expected[0]["E"] == pytest.approx(0.5 - (0.25 + 0.3**2) ** 0.5)
    assert expected[2]["radius"] == pytest.approx(0.5)
    report.tasks[2]["result"]["radius"] *= 1.2
    assert len(_failures(doc, expected, report, tmp_path)) == 1


def test_geometry_oracle_catches_a_wrong_n0(tmp_path):
    doc = workloads.certify_2d(4, smoke=True)
    report, expected = _run(doc, tmp_path)
    assert _failures(doc, expected, report, tmp_path) == []
    report.tasks[0]["result"]["n0"] += 1
    assert len(_failures(doc, expected, report, tmp_path)) == 1


def test_failed_invariant_counts_as_a_failed_task(tmp_path):
    doc = workloads.certify_2d(4, smoke=True)
    report, expected = _run(doc, tmp_path)
    report.invariants[1]["pass"] = False
    assert len(_failures(doc, expected, report, tmp_path)) == 1


def test_oracle_disagreement_raises_ops_failed(tmp_path, monkeypatch):
    paths = workloads.write([("sparse", workloads.sparse_track_2d(2, smoke=True))], tmp_path / "in")
    load = worker.Workload([["sparse", str(paths[0])]], tmp_path / "out")
    load.run_pass({})
    assert (load.attempted, load.failed) == (2, 0)
    execute = cli.execute_scenario

    def perturbed(doc, out):
        report = execute(doc, out)
        report.tasks[0]["result"]["E"][0] += 1e-6
        return report

    monkeypatch.setattr(cli, "execute_scenario", perturbed)
    load.run_pass({})
    assert (load.attempted, load.failed) == (4, 1)

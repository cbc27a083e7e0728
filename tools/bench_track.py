"""Layer and task timings of eigenvalue tracking, written as JSON.

Per scenario: one Hermitian tracking step (`analytic.track_eigenvalue` at
the scenario's beta from the reference vector) with the factorizations and
right-hand-side columns it takes, one `analytic._reference_vector` at
beta = 0, the track and sweep task times and minor page faults of RUNS
in-process runs of the scenario cut to those tasks, the first run (cold)
and the median of the others, and the band reductions
(`analytic._band_eigenvalues` calls) each task makes in one run.  Every
layer value is the median of REPEAT timings (`bench_common.py`).  The
layers take H(beta) from the family (`RunContext.system`), not from the
CLI's `RunContext.hamiltonian`, which returns the operator of a repeated
beta with its band eigenvalues kept: each repeat assembles and reduces a
new H(beta), as a step at a new beta does.
Scenarios: bumps_1d (d = 160), its track task with a sweep added
(SWEEP_1D), and the seed-3 lattice of perfbench's sparse_track_2d
workload (d = 210), whose track task and two-step sweep are its own.

One process of this tool runs at one of two speeds, so a single run
cannot compare two checkouts.  `--compare SRC --processes N` runs the tool
in 2N fresh processes, alternating the `src/` of this checkout and SRC (say,
the parent commit's), and writes every run and the median of every value
per side.

Run from the repository root:

    PYTHONPATH=src python tools/bench_track.py --out BENCH.json
    PYTHONPATH=src python tools/bench_track.py --out BENCH.json \
        --compare ../parent/src --processes 5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from bench_common import environment, median_time, task_times
from specpert import analytic, cli, serialize

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SWEEP_1D = {"task": "sweep", "axis": 1, "range": [0.0, 0.06], "steps": 4, "eig_index": 0}


def scenario_docs() -> dict:
    """bumps_1d cut to its track task plus SWEEP_1D, and the seed-3
    sparse_track_2d scenario."""
    bumps = cli.load_scenario(ROOT / "scenarios" / "bumps_1d.yaml")
    bumps["tasks"] = [t for t in bumps["tasks"] if t["task"] == "track"] + [SWEEP_1D]
    (_, lattice_doc), = workloads.scenarios("sparse_track_2d", 3, ROOT)
    return {"bumps_1d": bumps, "sparse_track_2d-seed3": lattice_doc}


def layer_times(doc: dict) -> dict:
    grid = serialize.grid_from_dict({"schema": 1, **doc["grid"]})
    family = cli.build_family(doc["family"], np.random.default_rng(int(doc["seed"])))
    ctx = cli.RunContext(scenario=doc, grid=grid, family=family,
                         beta=serialize.coupling_from_dict({"schema": 1, **doc["beta"]}),
                         tol={}, out=Path(), report=None)
    track = next(t for t in doc["tasks"] if t["task"] == "track")
    beta, base = ctx.beta_vector(), np.zeros(len(family), dtype=complex)
    system = ctx.system
    if not system(beta).hermitian:
        raise RuntimeError("H(beta) of the track task is not Hermitian")
    # On H(base), as `cli.task_track` places it.
    contour = cli._place_contour(system(base), int(track.get("eig_index", 0)),
                                 q=int(track.get("contour_nodes", 64)))
    psi0 = analytic._reference_vector(system, base, contour)
    stats = analytic.BlockStats()
    analytic.track_eigenvalue(system, beta, contour, psi0, stats=stats)
    return {
        "d": system.h0.dim, "contour_nodes": contour.q,
        "step_factorizations": stats.factorizations,
        "step_rhs_columns": stats.rhs_columns,
        "track_step_s": median_time(
            lambda: analytic.track_eigenvalue(system, beta, contour, psi0)),
        "reference_vector_s": median_time(
            lambda: analytic._reference_vector(system, base, contour)),
    }


def band_reductions(doc: dict) -> dict:
    """`analytic._band_eigenvalues` calls of each task in one in-process run
    of doc, by task name."""
    counts = {t["task"]: 0 for t in doc["tasks"]}
    running = None
    reduce = analytic._band_eigenvalues

    def counted(mat, d):
        counts[running] += 1
        return reduce(mat, d)

    def entered(name, task):
        def run(ctx, spec):
            nonlocal running
            running = name
            return task(ctx, spec)
        return run

    tasks = {name: entered(name, task) for name, task in cli._TASK_FUNCS.items()}
    with mock.patch.object(analytic, "_band_eigenvalues", counted), \
            mock.patch.dict(cli._TASK_FUNCS, tasks), tempfile.TemporaryDirectory() as tmp:
        cli.execute_scenario(doc, Path(tmp))
    return counts


def measure() -> dict:
    result = {}
    for name, doc in scenario_docs().items():
        result[name] = {"layers": layer_times(doc), "tasks": task_times(doc, ("track", "sweep")),
                        "band_reductions": band_reductions(doc)}
    return {"scenarios": result, "env": environment()}


def median_of(runs: list):
    """The median of every numeric leaf over runs of the same shape."""
    first = runs[0]
    if isinstance(first, dict):
        return {key: median_of([run[key] for run in runs]) for key in first}
    if isinstance(first, (int, float)) and not isinstance(first, bool):
        return statistics.median(runs)
    return first


def compare(src: Path, processes: int) -> dict:
    sides = {"change": ROOT / "src", "parent": src}
    runs: dict[str, list] = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(processes):
            # Alternate which side goes first in each round.
            for side in sorted(sides, reverse=bool(i % 2)):
                out = Path(tmp) / f"{side}-{i}.json"
                env = {**os.environ, "PYTHONPATH": str(sides[side])}
                subprocess.run([sys.executable, __file__, "--out", str(out)], env=env,
                               check=True, stdout=subprocess.DEVNULL)
                runs[side].append(json.loads(out.read_text()))
    return {"sides": {"change": "src", "parent": str(src)},
            "processes": processes,
            "median": {side: median_of(side_runs) for side, side_runs in runs.items()},
            "runs": runs}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare", type=Path, default=None, metavar="SRC")
    parser.add_argument("--processes", type=int, default=5)
    args = parser.parse_args()
    result = measure() if args.compare is None else compare(args.compare, args.processes)
    result["command"] = "python tools/bench_track.py " + " ".join(sys.argv[1:])
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result.get("median", result), indent=2))


if __name__ == "__main__":
    main()

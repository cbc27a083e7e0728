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
new H(beta), as a step at a new beta does.  H(0), which adds no term to
the Laplacian H0, carries H0's closed-form spectrum, so the reference
vector reduces no band.
Scenarios: bumps_1d (d = 160), its track task with a sweep added
(SWEEP_1D), and the seed-3 lattice of perfbench's sparse_track_2d
workload (d = 210), whose track task and two-step sweep are its own.

`--compare SRC --processes N` alternates this checkout and SRC in 2N fresh
processes (`bench_common.compare`).

Run from the repository root:

    PYTHONPATH=src python tools/bench_track.py --out BENCH.json
    PYTHONPATH=src python tools/bench_track.py --out BENCH.json \
        --compare ../parent/src --processes 5
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from bench_common import calls_per_task, environment, main, median_time, task_times
from specpert import analytic, cli

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
    ctx = cli.RunContext.from_document(doc, Path())
    track = next(t for t in doc["tasks"] if t["task"] == "track")
    beta, base = ctx.beta_vector(), np.zeros(len(ctx.family), dtype=complex)
    system = ctx.system
    if not system(beta).hermitian:
        raise RuntimeError("H(beta) of the track task is not Hermitian")
    contour = cli._task_contour(ctx, track, base)
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


def measure() -> dict:
    result = {}
    for name, doc in scenario_docs().items():
        result[name] = {"layers": layer_times(doc), "tasks": task_times(doc, ("track", "sweep")),
                        "band_reductions": calls_per_task(doc, analytic, "_band_eigenvalues")}
    return {"scenarios": result, "env": environment()}


if __name__ == "__main__":
    main(__file__, measure)

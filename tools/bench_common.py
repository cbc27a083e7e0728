"""What the layer benches in this directory share: the median of REPEAT
timings, the per-task times and minor page faults of RUNS in-process
scenario runs, the numpy/scipy versions and BLAS thread configuration they
record, and their command line (`main`).

One process of a bench runs at one of two speeds, so a single run cannot
compare two checkouts.  `--compare SRC --processes N` runs the bench in 2N
fresh processes, alternating the `src/` of this checkout and SRC (say, the
parent commit's), and writes every run and the median of every value per
side (`compare`).  Every run records the time of one fixed band LU
(`speed_probe`), so a run in the slow mode shows in the record."""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import scipy
import scipy.linalg.lapack as lapack

from specpert import cli

REPEAT = 21
RUNS = 5


def median_time(fn) -> float:
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def blas_threads() -> int | None:
    """OpenBLAS thread count of numpy's bundled library, if it exposes one."""
    for lib in glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*.so*"):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def task_times(doc: dict, names: tuple[str, ...]) -> dict:
    """`<name>_task_s` of each named task and the process's minor page
    faults (`ru_minflt`) per run, over RUNS runs of `doc`: the first run
    (cold) and the median of the others."""
    per_task: dict[str, list[float]] = {name: [] for name in names}
    faults = []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(RUNS):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            report = cli.execute_scenario(doc, Path(tmp))
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            for key, dt in report.timings.items():
                name = key.split(":", 1)[1]
                if name in per_task:
                    per_task[name].append(dt)
    result = {f"{name}_task_s": cold_warm(times) for name, times in per_task.items()}
    result["minor_faults_per_run"] = cold_warm(faults)
    return result


def calls_per_task(doc: dict, owner, name: str) -> dict:
    """Calls of `owner.name` (say, `analytic._band_eigenvalues`) each task
    makes in one in-process run of doc, by task name."""
    counts = {t["task"]: 0 for t in doc["tasks"]}
    running = None
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[running] += 1
        return real(*args, **kwargs)

    def entered(task_name, task):
        def run(ctx, spec):
            nonlocal running
            running = task_name
            return task(ctx, spec)
        return run

    tasks = {task_name: entered(task_name, task) for task_name, task in cli._TASK_FUNCS.items()}
    with mock.patch.object(owner, name, counted), mock.patch.dict(cli._TASK_FUNCS, tasks), \
            tempfile.TemporaryDirectory() as tmp:
        cli.execute_scenario(doc, Path(tmp))
    return counts


def cold_warm(values: list) -> dict:
    return {"cold": values[0], "warm_median": statistics.median(values[1:])}


def speed_probe() -> float:
    """Median time of one ``zgbtrf`` of a fixed complex tridiagonal band
    (d = 160, the bumps_1d size), the same work in every process and
    checkout: it reads about twice as long in a process of the slow mode."""
    d = 160
    ab = np.zeros((4, d), dtype=complex)
    ab[1, 1:] = ab[3, :-1] = -1.0
    ab[2] = 2.0 + 0.01j
    return median_time(lambda: lapack.zgbtrf(ab, 1, 1))


def environment() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "thread_env": {k: v for k, v in os.environ.items()
                           if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "zgbtrf_probe_s": speed_probe()}


def median_of(runs: list):
    """The median of every numeric leaf over runs of the same shape."""
    first = runs[0]
    if isinstance(first, dict):
        return {key: median_of([run[key] for run in runs]) for key in first}
    if isinstance(first, (int, float)) and not isinstance(first, bool):
        return statistics.median(runs)
    return first


def compare(script: str, src: Path, processes: int) -> dict:
    """`script --out` run in 2 x `processes` fresh processes, with the
    `src/` of this checkout and SRC in turn, and which of them goes first
    alternating from round to round."""
    sides = {"change": Path(__file__).resolve().parents[1] / "src", "parent": src}
    runs: dict[str, list] = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(processes):
            for side in sorted(sides, reverse=bool(i % 2)):
                out = Path(tmp) / f"{side}-{i}.json"
                env = {**os.environ, "PYTHONPATH": str(sides[side])}
                subprocess.run([sys.executable, script, "--out", str(out)], env=env,
                               check=True, stdout=subprocess.DEVNULL)
                runs[side].append(json.loads(out.read_text()))
    return {"sides": {"change": "src", "parent": str(src)},
            "processes": processes,
            "median": {side: median_of(side_runs) for side, side_runs in runs.items()},
            "runs": runs}


def main(script: str, measure) -> None:
    """The command line of a bench: `measure()` written to --out as JSON,
    or with --compare SRC, `compare` over --processes pairs."""
    doc = sys.modules["__main__"].__doc__
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare", type=Path, default=None, metavar="SRC")
    parser.add_argument("--processes", type=int, default=5)
    args = parser.parse_args()
    result = measure() if args.compare is None else compare(script, args.compare, args.processes)
    result["command"] = f"python tools/{Path(script).name} " + " ".join(sys.argv[1:])
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result.get("median", result), indent=2))

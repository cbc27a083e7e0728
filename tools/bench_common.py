"""What the layer benches in this directory share: the median of REPEAT
timings, the per-task times and minor page faults of RUNS in-process
scenario runs, and the numpy/scipy versions and BLAS thread configuration
they record."""

from __future__ import annotations

import ctypes
import glob
import os
import resource
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

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


def cold_warm(values: list) -> dict:
    return {"cold": values[0], "warm_median": statistics.median(values[1:])}


def environment() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "thread_env": {k: v for k, v in os.environ.items()
                           if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}

"""Benchmark worker: executes one workload's scenarios in this process.

Run by `run.py` as `python3 worker.py <job.json>`, with the BLAS thread
variables already fixed in its environment.  It loads the scenario YAML
files with `cli.load_scenario`, runs one untimed warm-up pass (see
`workloads.warmup`), then repeats passes over the scenarios with
`cli.execute_scenario` for about `seconds`, checking every task against the
oracles.  With
`trace` set it installs the tracer and alternates plain and traced passes.
It writes one JSON result to the job's `result` path.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import oracles
import tracing
from run import THREAD_VARS
from specpert import cli


def env_info() -> dict:
    """Interpreter, library and BLAS configuration in effect in this process."""
    import ctypes
    import glob
    import platform

    info = {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ}}
    for mod in (np, scipy):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        entry = {"vendor": blas.get("name"), "version": blas.get("version"), "threads": None}
        for lib in glob.glob(os.path.dirname(mod.__file__) + ".libs/*openblas*.so*"):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    entry["threads"] = int(getattr(handle, symbol)())
                    break
        info[f"blas_{mod.__name__}"] = entry
    return info


def digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


class Workload:
    """Loaded scenarios plus their oracle reference values and ledgers."""

    def __init__(self, paths: list[tuple[str, str]], out: Path):
        self.out = out
        self.docs = [(name, cli.load_scenario(Path(path))) for name, path in paths]
        self.systems = {name: oracles.System(doc) for name, doc in self.docs}
        self.expected = {name: oracles.expect(self.systems[name], doc) for name, doc in self.docs}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.sha256: dict[str, dict[str, str]] = {}
        self.sha256_stable = True

    def run_pass(self, timings: dict) -> float:
        """Execute every scenario once; return the summed execution time."""
        total = 0.0
        for name, doc in self.docs:
            out = self.out / name
            t0 = time.perf_counter()
            try:
                report = cli.execute_scenario(doc, out)
            except Exception as exc:  # a failing scenario is counted, the benchmark goes on
                dt = time.perf_counter() - t0
                outcomes = [f"{name} raised {type(exc).__name__}: {exc}"] * len(doc["tasks"])
            else:
                dt = time.perf_counter() - t0
                checks = oracles.check(doc, self.expected[name], report, out)
                outcomes = oracles.task_outcomes(doc, report, checks)
                for key, value in report.timings.items():
                    task = key.split(":", 1)[1]
                    timings[f"cli.task.{task}.s"] = timings.get(f"cli.task.{task}.s", 0.0) + value
                halvings = sum(t["result"].get("halvings", 0) for t in report.tasks)
                timings["cli.sweep.halvings"] = timings.get("cli.sweep.halvings", 0) + halvings
                sha = digests(out)
                self.sha256_stable &= self.sha256.setdefault(name, sha) == sha
            timings[f"cli.scenario.{name}.s"] = timings.get(f"cli.scenario.{name}.s", 0.0) + dt
            total += dt
            self.attempted += len(outcomes)
            bad = [f"{name}: {o}" for o in outcomes if o is not None]
            self.failed += len(bad)
            self.failures.extend(bad[: max(0, 20 - len(self.failures))])
        return total

    def describe(self) -> dict:
        contour_q = [int(t.get("contour_nodes", 64)) for _, doc in self.docs
                     for t in doc["tasks"] if t["task"] in ("track", "sweep", "taylor")]
        return {"d": max(s.h0.shape[0] for s in self.systems.values()),
                "q": max(contour_q, default=0),
                "terms": sum(s.n for s in self.systems.values())}


# A pass is started only if, at the mean pass time so far, it ends by this
# multiple of the window, so a pass longer than half the window runs once.
OVERRUN = 1.25


def measure(plain: Workload, seconds: float, traced: Workload | None = None,
            tracer=None) -> tuple[list[float], list[float], dict]:
    """Passes for about `seconds` of wall time (at least one).

    With `traced` given, plain and traced passes alternate, so both see the
    same machine load and their ratio is the tracing overhead.  Returns the
    plain pass times, the traced pass times and the program's per-task
    timings averaged over the plain passes.
    """
    times: list[float] = []
    traced_times: list[float] = []
    timings: dict = {}
    start = time.perf_counter()
    while True:
        times.append(plain.run_pass(timings))
        if traced is not None:
            tracer.run_id += 1
            tracer.active = True
            try:
                traced_times.append(traced.run_pass({}))
            finally:
                tracer.active = False
        n = len(times)
        if (time.perf_counter() - start) * (n + 1) / n > OVERRUN * seconds:
            break
    return times, traced_times, {k: v / n for k, v in timings.items()}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    out = Path(job["out"])
    Workload(job["warmup"], out / "warmup").run_pass({})
    plain = Workload(job["scenarios"], out / "plain")
    result: dict = {"env": env_info(), "describe": plain.describe(),
                    "tolerances": oracles.TOLERANCES}
    ledgers = [plain]
    if not job["trace"]:
        result["passes"], _, result["timings"] = measure(plain, job["seconds"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.active = True
            try:
                traced = Workload(job["scenarios"], out / "traced")
            finally:
                tracer.active = False
            ledgers.append(traced)
            passes, traced_passes, result["timings"] = measure(plain, job["seconds"], traced, tracer)
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(tracer, len(traced_passes),
                                       sum(traced_passes) / len(traced_passes))
        layers["cli.load_scenario.s"] = sum(s[tracing.END] - s[tracing.START] for s in tracer.spans
                                            if s[tracing.NAME] == "cli.load_scenario"
                                            and s[tracing.RUN] == 0)
        tracer.write(Path(job["spans"]))
        result.update(passes=passes, traced_passes=traced_passes, layers=layers)

    result.update(attempted=sum(w.attempted for w in ledgers),
                  failed=sum(w.failed for w in ledgers),
                  failures=[f for w in ledgers for f in w.failures],
                  sha256=plain.sha256, sha256_stable=all(w.sha256_stable for w in ledgers))
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

"""specpert benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  Workloads (see BENCHMARK.json for why each
was chosen): shipped_1d, sparse_track_2d, certify_2d.  Each run

* derives the workload's scenario YAML from --seed (the program sees only
  that YAML),
* times set-up in fresh interpreters (median of several),
* runs the scenarios in one worker process, a closed loop with one client,
  at the BLAS library's default thread count, repeating passes for
  --seconds and checking every task against independent oracles,
* with --trace 1, also runs a traced segment and a single-threaded
  baseline, and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `--workload all` prints run_s,
setup_s, peak_rss_mb and ops_failed_frac for every workload instead.
Scratch files go to .perfbench_out/ in the checkout; spans of a traced run
are kept there as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env(root: Path, tmp: Path, threads: int | None) -> dict:
    """Environment for a worker: specpert from the checkout, temporary files
    inside the checkout, and BLAS threads at the library default or pinned."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)
    if threads is not None:
        env.update({k: str(threads) for k in THREAD_VARS})
    return env


def call(cmd: list[str], env: dict, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + Path(cmd[1]).name)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=remaining, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{Path(cmd[1]).name} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{Path(cmd[1]).name} exited with code {proc.returncode}")
    return proc.stdout


def worker(root: Path, work: Path, tag: str, job: dict, threads: int | None,
           deadline: float) -> dict:
    job = {**job, "out": str(work / tag), "result": str(work / f"{tag}.json")}
    job_path = work / f"{tag}-job.json"
    job_path.write_text(json.dumps(job))
    call([sys.executable, str(HERE / "worker.py"), str(job_path)],
         child_env(root, work, threads), deadline)
    return json.loads(Path(job["result"]).read_text())


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, info)."""
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "specpert" / "__init__.py").is_file():
        raise BenchError(f"no specpert sources under {root / 'src'}; run from a checkout root")
    out_dir = root / ".perfbench_out"
    work = out_dir / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        try:
            docs = workloads.scenarios(workload, seed, root, smoke)
            warm = workloads.warmup(workload, seed, root, smoke)
        except OSError as exc:
            raise BenchError(f"cannot read scenarios: {exc}") from exc
        paths = workloads.write(docs, work / "scenarios")
        warm_paths = workloads.write(warm, work / "warmup")
        env = child_env(root, work, None)
        setup = [float(call([sys.executable, str(HERE / "setup_probe.py"), str(root / "src"),
                             *map(str, paths)], env, deadline).strip().splitlines()[-1])
                 for _ in range(0 if trace else SETUP_REPEATS)]
        job = {"scenarios": [[name, str(p)] for (name, _), p in zip(docs, paths)],
               "warmup": [[name, str(p)] for (name, _), p in zip(warm, warm_paths)],
               "seconds": seconds, "trace": trace,
               "spans": str(out_dir / f"spans-{workload}-seed{seed}.jsonl")}
        res = worker(root, work, "default", job, None, deadline)
        baseline = worker(root, work, "1thread", {**job, "trace": False}, 1, deadline) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run_s = statistics.median(res["passes"])
    attempted, failed = res["attempted"], res["failed"]
    if trace:
        metrics = dict(res["layers"])
        for task in ("geometry", "stummel", "bounds", "track", "taylor", "sweep", "verify"):
            metrics[f"cli.task.{task}.s"] = res["timings"].get(f"cli.task.{task}.s", 0.0)
        for name in workloads.SHIPPED:
            metrics[f"cli.scenario.{name}.s"] = res["timings"].get(f"cli.scenario.{name}.s", 0.0)
        metrics["cli.sweep.halvings"] = res["timings"].get("cli.sweep.halvings", 0)
        metrics["cli.run_s_1thread"] = statistics.median(baseline["passes"])
        metrics["trace.overhead_frac"] = statistics.median(res["traced_passes"]) / run_s - 1.0
        metrics.update({f"workload.{k}": v for k, v in res["describe"].items()})
        metrics["env.blas_threads"] = res["env"]["blas_scipy"]["threads"] or 0
        metrics["env.nproc"] = res["env"]["nproc"]
        attempted += baseline["attempted"]
        failed += baseline["failed"]
    else:
        metrics = {"run_s": run_s, "setup_s": statistics.median(setup),
                   "peak_rss_mb": res["peak_rss_mb"]}
    kind = "per_layer" if trace else "end_to_end"
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units(kind).items()}}
    info = {"workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
            "passes": res["passes"], "setup_runs": setup, "describe": res["describe"],
            "env": res["env"], "oracle_tolerances": res["tolerances"],
            "sha256": res["sha256"], "sha256_stable": res["sha256_stable"],
            "failures": res["failures"] + (baseline["failures"] if baseline else [])}
    return line, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the benchmark itself")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [(name, *measure(name, args.seed, args.seconds, bool(args.trace), args.smoke))
                   for name in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, line, info in results:
        print(json.dumps({"info": info}))
        for key, metric in line["metrics"].items():
            print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}")
        frac = line["failed"] / line["attempted"]
        print(f"{name} ops_failed_frac = {frac:.6g} ({line['failed']} of {line['attempted']} tasks)")
    if args.workload == "all":
        return 0 if all(line["correct"] for _, line, _ in results) else 1
    print(json.dumps(results[0][1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

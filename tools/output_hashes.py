"""sha256 of every output file of the shipped scenarios and of two perfbench
workload scenarios, the byte-identity guard of a refactor.

It runs `specpert run` on scenarios/bumps_1d.yaml, sweep_1d.yaml and
two_level.yaml as shipped, and on perfbench's sparse_track_2d and
certify_2d scenarios (`perfbench/workloads.py`) at each --seed, one process
per scenario with the caller's environment (so OPENBLAS_NUM_THREADS
applies).  It prints one `path sha256` line per output file, path relative
to the run's output root (`<scenario>/<file>`, the perfbench ones as
`<workload>-seed<seed>/<file>`).

Run from the repository root:

    python tools/output_hashes.py > hashes.txt
    python tools/output_hashes.py --against hashes.txt

`--against FILE` compares with an earlier listing and exits 1 on any
missing, extra or different file.  `--root DIR` runs the `src/` and
`scenarios/` of another checkout (say, the parent commit) with this
checkout's workload definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SHIPPED = ("bumps_1d", "sweep_1d", "two_level")
WORKLOADS = ("sparse_track_2d", "certify_2d")


def run(root: Path, scenario: Path, out: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "specpert.cli", "run", "--scenario",
                           str(scenario), "--out", str(out)],
                          env=env, capture_output=True, text=True)
    # Exit 1 is an invariant FAIL, recorded in report.yaml like any output.
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{scenario.name}: exit {proc.returncode}\n{proc.stderr}")


def hashes(root: Path, seeds: list[int]) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in SHIPPED:
            run(root, root / "scenarios" / f"{name}.yaml", tmp / "out" / name)
        for seed in seeds:
            for name in WORKLOADS:
                docs = workloads.scenarios(name, seed, root)
                (path,) = workloads.write(docs, tmp / "scenarios" / f"seed{seed}")
                run(root, path, tmp / "out" / f"{name}-seed{seed}")
        return {path.relative_to(tmp / "out").as_posix():
                hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted((tmp / "out").rglob("*")) if path.is_file()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[3, 11])
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args()
    got = hashes(args.root.resolve(), args.seed)
    for path, digest in got.items():
        print(path, digest)
    if args.against is not None:
        want = dict(line.split() for line in args.against.read_text().splitlines() if line)
        differ = sorted(p for p in want.keys() | got.keys() if want.get(p) != got.get(p))
        for path in differ:
            print(f"differs: {path} {want.get(path, '-')} -> {got.get(path, '-')}",
                  file=sys.stderr)
        sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()

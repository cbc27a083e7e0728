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

`--values --root DIR` runs this checkout and DIR, and in place of the
listing prints every value of a report.yaml or CSV that differs between
them, one line each: file, key (the report's key path, or a CSV's row and
column), DIR's value, this checkout's, |delta| and |delta| / |old| for
numbers:

    python tools/output_hashes.py --values --root ../parent
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

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


def outputs(root: Path, seeds: list[int], tmp: Path) -> Path:
    """Every scenario run with the checkout `root`, under tmp/out/<run>;
    returns tmp/out."""
    for name in SHIPPED:
        run(root, root / "scenarios" / f"{name}.yaml", tmp / "out" / name)
    for seed in seeds:
        for name in WORKLOADS:
            docs = workloads.scenarios(name, seed, root)
            (path,) = workloads.write(docs, tmp / "scenarios" / f"seed{seed}")
            run(root, path, tmp / "out" / f"{name}-seed{seed}")
    return tmp / "out"


def files(out: Path) -> dict[str, Path]:
    return {path.relative_to(out).as_posix(): path
            for path in sorted(out.rglob("*")) if path.is_file()}


def hashes(root: Path, seeds: list[int]) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: hashlib.sha256(path.read_bytes()).hexdigest()
                for name, path in files(outputs(root, seeds, Path(tmp))).items()}


def flatten(doc, prefix: str = ""):
    """(key path, value) of every leaf of a YAML document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        yield prefix, doc
        return
    for key, value in items:
        yield from flatten(value, f"{prefix}.{key}" if prefix else str(key))


def values(path: Path) -> dict[str, object]:
    """Every value of a report.yaml by key path, or of a CSV by
    `<row>.<column>` (rows counted from 0 below the header)."""
    if path.suffix == ".yaml":
        return dict(flatten(yaml.safe_load(path.read_text())))
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return {f"{i}.{column}": value for i, line in enumerate(lines[1:])
            for column, value in zip(header, line.split(","))}


def number(value) -> complex | None:
    if isinstance(value, bool):
        return None
    try:
        return complex(value)
    except (TypeError, ValueError):
        return None


def changed_values(old_out: Path, new_out: Path) -> list[str]:
    """One line per value that differs between the two output trees."""
    old_files, new_files = files(old_out), files(new_out)
    lines = []
    for name in sorted(old_files.keys() | new_files.keys()):
        if name not in old_files or name not in new_files:
            lines.append(f"{name} only in {'new' if name in new_files else 'old'}")
            continue
        old, new = values(old_files[name]), values(new_files[name])
        for key in sorted(old.keys() | new.keys()):
            a, b = old.get(key, "-"), new.get(key, "-")
            if a == b:
                continue
            x, y = number(a), number(b)
            if x is None or y is None:
                lines.append(f"{name} {key} {a!r} -> {b!r}")
                continue
            delta = abs(y - x)
            rel = delta / abs(x) if x != 0 else float("inf")
            lines.append(f"{name} {key} {a} {b} {delta:.3g} {rel:.3g}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[3, 11])
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--against", type=Path, default=None)
    parser.add_argument("--values", action="store_true")
    args = parser.parse_args()
    if args.values:
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            old = outputs(args.root.resolve(), args.seed, tmp / "old")
            new = outputs(ROOT, args.seed, tmp / "new")
            print("\n".join(changed_values(old, new)))
        return
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

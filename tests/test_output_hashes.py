"""Byte-identity guard: every output file of the shipped scenarios and of
perfbench's sparse_track_2d and certify_2d workloads at seeds 3 and 11, run
in-process through `cli.execute_scenario`, has the sha256 recorded in
`tests/data/output_hashes.txt`.

The listing is the output of `python tools/output_hashes.py` (one
`specpert run` process per scenario).  A change meant to alter report bytes
regenerates it and names every changed value in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from specpert import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

LISTING = dict(line.split() for line in
               (ROOT / "tests" / "data" / "output_hashes.txt").read_text().splitlines() if line)

RUNS = [(name, ROOT / "scenarios" / f"{name}.yaml") for name in ("bumps_1d", "sweep_1d",
                                                                    "two_level")]
RUNS += [(f"{name}-seed{seed}", (name, seed)) for name in ("sparse_track_2d", "certify_2d")
         for seed in (3, 11)]


@pytest.mark.parametrize("run, source", RUNS, ids=[run for run, _ in RUNS])
def test_outputs_match_recorded_sha256(tmp_path, run, source):
    if isinstance(source, tuple):
        name, seed = source
        (source,) = workloads.write(workloads.scenarios(name, seed, ROOT), tmp_path)
    out = tmp_path / "out"
    cli.execute_scenario(cli.load_scenario(source), out)
    got = {f"{run}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
           for path in out.iterdir()}
    want = {path: digest for path, digest in LISTING.items() if path.startswith(f"{run}/")}
    assert got == want

"""Workload definitions: which scenarios each benchmark workload runs.

A workload is a list of (name, scenario document) pairs executed in order.
Every document is derived from the benchmark seed alone, so the same seed
always gives the same inputs.  The program under test only ever sees the
scenario YAML written from these documents.
"""

from __future__ import annotations

import random
from pathlib import Path

import yaml

WORKLOADS = ("shipped_1d", "sparse_track_2d", "certify_2d")

SHIPPED = ("bumps_1d", "sweep_1d", "two_level")

# Smoke sizes: small enough that a whole traced run takes seconds, while
# every task and oracle of the full workload still runs.
_SHIPPED_SMOKE = {
    "bumps_1d": {"grid": {"points": [40]}, "tasks": {
        "bounds": {"probes": 32}, "taylor": {"q": 32, "M": 8}, "verify": {"M": 8}}},
    "sweep_1d": {"grid": {"points": [40]}, "tasks": {"sweep": {"steps": 3}}},
    "two_level": {"tasks": {"taylor": {"q": 32}}},
}


def scenarios(workload: str, seed: int, root: Path, smoke: bool = False) -> list[tuple[str, dict]]:
    """Scenario documents of `workload` for `seed`, in execution order."""
    if workload == "shipped_1d":
        return [(name, _shipped(root, name, seed, smoke)) for name in SHIPPED]
    if workload == "sparse_track_2d":
        return [(workload, sparse_track_2d(seed, smoke))]
    if workload == "certify_2d":
        return [(workload, certify_2d(seed, smoke))]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def warmup(workload: str, seed: int, root: Path, smoke: bool = False) -> list[tuple[str, dict]]:
    """Scenarios of the untimed pass that precedes timing.

    It is the workload itself, so first-call costs (LAPACK workspaces at
    this d, the allocator growing to the pass's arrays) stay out of every
    timed pass.  shipped_1d warms up on its smoke variant instead: one of its
    passes fills the window, and a full warm-up would double the run.
    """
    return scenarios(workload, seed, root, smoke=smoke or workload == "shipped_1d")


def _shipped(root: Path, name: str, seed: int, smoke: bool) -> dict:
    """A shipped scenario as `specpert run --seed <seed>` would load it."""
    path = root / "scenarios" / f"{name}.yaml"
    doc = yaml.safe_load(path.read_text())
    doc["seed"] = int(seed)
    if smoke:
        small = _SHIPPED_SMOKE[name]
        if "grid" in small:
            doc["grid"].update(small["grid"])
        for task in doc["tasks"]:
            task.update(small["tasks"].get(task["task"], {}))
    return doc


def sparse_track_2d(seed: int, smoke: bool = False) -> dict:
    """A 2D bump lattice just above the dense/sparse switch of the
    resolvent solver (d = 15 x 14 = 210 > 200): tracking plus a two-step sweep.

    The seed moves the bump row, and draws the bump shape and couplings.
    """
    rng = random.Random(seed)
    nx, ny = (8, 6) if smoke else (15, 14)
    h = 0.5
    lx, ly = (nx - 1) * h, (ny - 1) * h
    return {
        "schema": 1,
        "seed": int(seed),
        "grid": {"extent": [[0.0, lx], [0.0, ly]], "points": [nx, ny]},
        "family": {
            "kind": "bump_lattice",
            "count": 3,
            "spacing": lx / 4,
            "origin": [lx / 4, ly / 2 + rng.uniform(-0.5, 0.5)],
            "width": rng.uniform(0.5, 0.8),
            "height": rng.uniform(0.8, 1.2),
            "support_halfwidth": 1.5,
        },
        "beta": {"values": [rng.uniform(0.02, 0.08) for _ in range(3)], "p": "inf"},
        "tasks": [
            {"task": "track", "eig_index": 0},
            {"task": "sweep", "axis": 1, "range": [0.0, 0.3], "steps": 2, "eig_index": 0},
        ],
    }


def certify_2d(seed: int, smoke: bool = False) -> dict:
    """Random box-supported Gaussian bumps on a 24 x 24 grid, certified by
    the geometry, Stummel and relative-bound tasks only (no contour code).

    Centers are jittered around a 16 x 8 lattice, so every seed covers the
    domain about equally and the amount of work does not depend on the seed.
    """
    rng = random.Random(seed)
    (cols, rows), side = ((4, 3), 8) if smoke else ((16, 8), 24)
    length = 12.0
    terms = []
    for i in range(cols * rows):
        c = [(i % cols + 0.5) * length / cols + rng.uniform(-0.3, 0.3),
             (i // cols + 0.5) * length / rows + rng.uniform(-0.3, 0.3)]
        hw = [rng.uniform(0.4, 1.0) for _ in range(2)]
        terms.append({
            "profile": {"kind": "gaussian", "center": c,
                        "width": rng.uniform(0.2, 0.6), "height": rng.uniform(0.5, 1.5)},
            "support": [[[c[0] - hw[0], c[0] + hw[0]], [c[1] - hw[1], c[1] + hw[1]]]],
        })
    return {
        "schema": 1,
        "seed": int(seed),
        "grid": {"extent": [[0.0, length], [0.0, length]], "points": [side, side]},
        "family": {"kind": "explicit", "terms": terms},
        "beta": {"values": [rng.uniform(-0.05, 0.05) for _ in terms], "p": "inf"},
        "tasks": [
            {"task": "geometry", "radius": 1.0},
            {"task": "stummel", "rho": 1.5},
            {"task": "bounds", "probes": 48},
        ],
    }


def write(docs: list[tuple[str, dict]], directory: Path) -> list[Path]:
    """Write each scenario as YAML; return the paths in execution order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, doc in docs:
        path = directory / f"{name}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=True))
        paths.append(path)
    return paths

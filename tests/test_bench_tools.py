"""The setup paths of the layer benches in `tools/`, each timing taken once
(`bench_common.REPEAT = 1`): the benches build their run context, task
contour and Stummel quadrature with the CLI's own constructors, so a change
to the CLI's setup fails here rather than in a bench run."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from specpert import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "perfbench"))

import bench_certify  # noqa: E402
import bench_common  # noqa: E402
import bench_taylor  # noqa: E402
import bench_track  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def one_repeat(monkeypatch):
    monkeypatch.setattr(bench_common, "REPEAT", 1)


def test_track_layers_on_the_smoke_lattice():
    doc = workloads.sparse_track_2d(3, smoke=True)
    track = next(t for t in doc["tasks"] if t["task"] == "track")
    layers = bench_track.layer_times(doc)
    assert layers["d"] == 8 * 6
    assert layers["contour_nodes"] == int(track.get("contour_nodes", 64))
    assert layers["step_factorizations"] > 0


def test_taylor_block_setup_places_the_task_contour():
    doc = cli.load_scenario(ROOT / "scenarios" / "bumps_1d.yaml")
    taylor = next(t for t in doc["tasks"] if t["task"] == "taylor")
    system, base, t, contour, psi0, zeta, H = bench_taylor.block_setup(doc, taylor)
    ctx = cli.RunContext.from_document(doc, Path())
    assert contour == cli._task_contour(ctx, taylor, ctx.beta_vector() * 0.0)
    assert system.h0.dim == len(psi0) == H.dim == 160
    assert np.array_equal(H.to_dense(), ctx.system(base + zeta * t).to_dense())


def test_certify_layers_take_the_stummel_task_params():
    doc = workloads.certify_2d(3, smoke=True)
    spec = next(t for t in doc["tasks"] if t["task"] == "stummel")
    layers = bench_certify.layer_times(doc)
    assert (layers["d"], layers["terms"]) == (8 * 8, 12)
    assert layers["probes"] == int(spec.get("probe_density", 7)) ** 2
    assert layers["intersection_stats_s"] > 0
    assert layers["overlap_depth_s"] > 0

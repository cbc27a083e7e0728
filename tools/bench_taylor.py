"""Layer and task timings of the Taylor series on the shipped bumps_1d
scenario, written as JSON.

Layers: every computed (not mirrored) Taylor sample of the bumps_1d path,
the nodes and test points with Im zeta >= 0, by shift-invert from the
shift `taylor_eigenpath` takes, in one `analytic._shift_invert_samples`
call (`shift_invert_samples_s`, and per sample), and one sample at a complex
zeta by the block contour path (`analytic._track_block`, 64 node LUs;
`taylor_sample_s` in BENCH_14 and BENCH_16) with its tracemalloc peak
(`block_sample_peak_mb`, MB = 10^6 bytes), the certified radius of the path
(`analytic.contour_kato_radius` on a newly assembled H(base), as an operator
keeps its band eigenvalues once reduced), one sample taken by conjugation
(`mirrored_sample_s`: the assembly of H(conj beta) and
`analytic._is_conjugate` against the partner's H(beta), as
`taylor_eigenpath` takes it), one `analytic.taylor_along` call on
matrix-valued samples of the size the sampled library check
`verify_analytic_family` takes at d = 160 (q = 64 samples of 160 x 160; the
whole call and its Fourier-matrix product alone), and one closed-form Kato
resolvent record of the verify task (`analytic.kato_radius` at the base point 0).
Every layer value is the median of REPEAT timings (`bench_common.py`).
Tasks: the taylor and verify times and the minor page faults of RUNS
in-process scenario runs, the first run (cold) and the median of the
others, and the ``zgbtrf`` calls each task makes in one run, on bumps_1d
and two_level.

Block samples past the band of bumps_1d: the time and tracemalloc peak of
one `analytic._track_block` at the same zeta on LATTICE, a 40 x 40 grid
(d = 1600) with three bumps, around its lowest eigenvalue.

Hamiltonian assembly: one H(beta) from `cli.RunContext.system`, the family
`cli.RunContext.hamiltonian` calls for a beta other than its last one, at
the scenario's real beta (Hermitian flag tested) and at a complex beta, on
bumps_1d (d = 160) and two_level (d = 2); each value is the median of REPEAT
batches of ASSEMBLIES calls, per call.

`--compare SRC --processes N` alternates this checkout and SRC in 2N fresh
processes (`bench_common.compare`).  SRC must be at or after b41721f, which
introduced the `analytic._shift_invert_samples(samples, x, stats)` signature
the layers call, and have the CLI setup the benches share (see
`bench_common`).

Run from the repository root:

    PYTHONPATH=src python tools/bench_taylor.py --out BENCH.json
    PYTHONPATH=src python tools/bench_taylor.py --out BENCH.json \
        --compare ../parent/src --processes 5
"""

from __future__ import annotations

import math
import tracemalloc
from pathlib import Path

import numpy as np

from bench_common import calls_per_task, environment, main, median_time, task_times
from specpert import analytic, cli

ROOT = Path(__file__).resolve().parents[1]
ASSEMBLIES = 200
LATTICE = {"seed": 0, "grid": {"extent": [[0.0, 10.0], [0.0, 10.0]], "points": [40, 40]},
           "family": {"kind": "bump_lattice", "count": 3, "spacing": 3.0,
                      "origin": [2.0, 5.0], "width": 0.6, "height": 1.0},
           "beta": {"values": [0.0]}}


def peak_mb(fn) -> float:
    """tracemalloc peak of one call of fn, in MB (10^6 bytes)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def block_setup(doc: dict, taylor: dict):
    """The family of `doc`, its taylor contour and reference vector, and
    H(beta) at the sample zeta = r e^(2 pi i / 8) of the `taylor` task."""
    ctx = cli.RunContext.from_document(doc, Path())
    system = ctx.system
    q, r = int(taylor.get("q", 128)), float(taylor["r"])
    base = np.zeros(len(ctx.family), dtype=complex)
    t = np.asarray(taylor["direction"], dtype=complex)
    contour = cli._task_contour(ctx, taylor, base)
    psi0 = analytic._reference_vector(system, base, contour)
    zeta = analytic._conjugate_circle(r, q)[q // 8]
    return system, base, t, contour, psi0, zeta, system(base + zeta * t)


def block_lattice(taylor: dict) -> dict:
    system, _, _, contour, psi0, _, H = block_setup(LATTICE, taylor)
    return {"d": system.h0.dim, "contour_nodes": contour.q,
            "block_sample_s": median_time(lambda: analytic._track_block(H, contour, psi0)),
            "block_sample_peak_mb": peak_mb(lambda: analytic._track_block(H, contour, psi0))}


def shift_invert_samples(system, base, t, psi0, r: float, q: int):
    """A function taking every computed sample of the path by shift-invert
    (a fresh `BlockStats` each call), and the number of samples."""
    zetas = np.concatenate([analytic._conjugate_circle(r, q), analytic._conjugate_circle(r / 2, 8)])
    zetas = zetas[zetas.imag >= 0]
    mats = [system(base + zeta * t) for zeta in zetas]
    h_base = system(base).matrix
    V = system(base + t).matrix - h_base
    norm2 = psi0 @ psi0
    E0, a1 = psi0 @ (h_base @ psi0) / norm2, psi0 @ (V @ psi0) / norm2
    sigmas = [E0 + zeta * a1 for zeta in zetas]
    return (lambda: [E for _, (E, _) in analytic._shift_invert_samples(
        zip(zetas, mats, sigmas), psi0, analytic.BlockStats())]), len(zetas)


def layer_times(doc: dict) -> dict:
    taylor = next(t for t in doc["tasks"] if t["task"] == "taylor")
    system, base, t, contour, psi0, zeta, H = block_setup(doc, taylor)
    q, r = int(taylor.get("q", 128)), float(taylor["r"])
    mirror = base + np.conj(zeta) * t
    E = analytic._track_block(H, contour, psi0)
    V = system(base + t).matrix - system(base).matrix

    samples_fn, computed = shift_invert_samples(system, base, t, psi0, r, q)
    shift_invert_E = samples_fn()[q // 8]  # the sample at zeta
    if not abs(shift_invert_E - E) <= 1e-12 * abs(E):
        raise RuntimeError("the shift-invert sample misses the block sample")

    def mirrored():
        return analytic._is_conjugate(system(mirror).matrix, H.matrix)

    if not mirrored():
        raise RuntimeError("the conjugate node is not reflected")

    rng = np.random.default_rng(0)
    d, nodes, M = system.h0.dim, 64, 8
    samples = rng.standard_normal((nodes, d, d)) + 1j * rng.standard_normal((nodes, d, d))
    angles = 2 * np.pi * np.arange(nodes) / nodes
    fourier = np.exp(-1j * np.arange(M + 1)[:, None] * angles)

    def series():
        it = iter(samples)
        return analytic.taylor_along(lambda beta: next(it, samples[0]), base, t, r, M, nodes,
                                     recon_tol=math.inf)

    h0, v = system(base), system.perturbation(t)
    lam0 = 10j * max(h0.norm_bound(), 1.0)
    samples_s = median_time(samples_fn)

    return {
        "d": d, "q": q, "contour_nodes": contour.q,
        "shift_invert_samples": computed,
        "shift_invert_samples_s": samples_s,
        "shift_invert_per_sample_s": samples_s / computed,
        "block_sample_s": median_time(lambda: analytic._track_block(H, contour, psi0)),
        "block_sample_peak_mb": peak_mb(lambda: analytic._track_block(H, contour, psi0)),
        "contour_kato_radius_s": median_time(
            lambda: analytic.contour_kato_radius(system(base), V, contour)),
        "mirrored_sample_s": median_time(mirrored),
        "series_matrix_shape": [nodes, d, d],
        "series_matrix_s": median_time(series),
        "contraction_fourier_product_s": median_time(
            lambda: fourier @ samples.reshape(nodes, -1)),
        "kato_radius_s": median_time(lambda: analytic.kato_radius(h0, v, lam0)),
    }


def hamiltonian_times() -> dict:
    result = {}
    for name in ("bumps_1d", "two_level"):
        ctx = cli.RunContext.from_document(
            cli.load_scenario(ROOT / "scenarios" / f"{name}.yaml"), Path())
        real = ctx.beta_vector()
        layer = {"d": ctx.system.h0.dim}
        for kind, beta, hermitian in (("real", real, True), ("complex", real + 0.1j, False)):
            if ctx.hamiltonian(beta).hermitian is not hermitian:
                raise RuntimeError(f"{name}: H(beta) at a {kind} beta has the wrong flag")
            layer[f"hamiltonian_{kind}_s"] = median_time(
                lambda: [ctx.system(beta) for _ in range(ASSEMBLIES)]) / ASSEMBLIES
        result[name] = layer
    return result


def tasks() -> dict:
    result = {}
    for name in ("bumps_1d", "two_level"):
        doc = cli.load_scenario(ROOT / "scenarios" / f"{name}.yaml")
        names = tuple(t["task"] for t in doc["tasks"] if t["task"] in ("taylor", "verify"))
        result[name] = {**task_times(doc, names),
                        "zgbtrf_calls": calls_per_task(doc, analytic.lapack, "zgbtrf")}
    return result


def measure() -> dict:
    doc = cli.load_scenario(ROOT / "scenarios" / "bumps_1d.yaml")
    return {
        "scenario": "scenarios/bumps_1d.yaml",
        "layers": layer_times(doc),
        "block_lattice": block_lattice(next(t for t in doc["tasks"] if t["task"] == "taylor")),
        "hamiltonian": hamiltonian_times(),
        "tasks": tasks(),
        "env": environment(),
    }


if __name__ == "__main__":
    main(__file__, measure)

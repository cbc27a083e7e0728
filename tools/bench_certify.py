"""Layer and task timings of the certify path (geometry, stummel, bounds) on
the certify_2d benchmark scenario at seed 3, written as JSON.

The scenario is 128 box-supported Gaussian bumps on a 24 x 24 grid
(d = 576), built by `perfbench/workloads.py`.  Layers: one
`analytic._band_eigenvalues` call on H(beta) (a real symmetric band of
width 24, reduced in real storage; each call reduces anew, where
`analytic._spectrum` keeps one reduction per operator) next to the same
band reduced in complex storage; one `geometry.disjoint_refinement`, one
`geometry.intersection_stats` (n0), one `geometry.check_fip_variant` (n1
at radius 1) and one `bounds._overlap_depth` of the 128 supports; one
`PotentialFamily.sample_on` of the grid; one Stummel probe sweep
(`potentials._family_sweep` on the probes and quadrature of the stummel
task); one `lattice.AffineFamily.from_potentials`; the family's term table
(`potentials._TermTable.of`), which a family builds once and the sample_on,
sweep and from_potentials layers reuse; one H(beta) and one V(beta); one
`lattice.build_laplacian` of the scenario's grid and of a 100 x 100 grid
(d = 10^4), which includes the closed-form spectrum where the Laplacian
carries one, and one `build_laplacian` of the scenario's grid followed by
`analytic._spectrum` (a band reduction where the Laplacian carries none);
one `analytic.gamma_membership` of a new H(beta) at the bounds task's
lambda = 0.001i (the H(beta) call included, as the task makes one; an
operator that reduced its band once would read it back), and one of the
100 x 100 grid's Laplacian at the same lambda (a band of width 100; timed
only where `gamma_membership` reduces no band, as one reduction there
takes about 15 s).
Every layer value is the median of REPEAT timings
(`bench_common.py`).  Tasks: the geometry, stummel and bounds times and the
minor page faults of RUNS in-process scenario runs, the first run (cold)
and the median of the others, and the band reductions
(`analytic._band_eigenvalues` calls) each task makes in one run.

`--compare SRC --processes N` alternates this checkout and SRC in 2N fresh
processes (`bench_common.compare`).

Run from the repository root:

    PYTHONPATH=src python tools/bench_certify.py --out BENCH.json
    PYTHONPATH=src python tools/bench_certify.py --out BENCH.json \
        --compare ../parent/src --processes 5
"""

from __future__ import annotations

import sys
from pathlib import Path

import scipy.linalg as la

from bench_common import calls_per_task, environment, main, median_time, task_times
from specpert import analytic, bounds, cli, geometry, lattice, potentials

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEED = 3
LARGE_GRID = lattice.Grid(extent=((0.0, 1.0), (0.0, 1.0)), points=(100, 100))
# The bounds task's lambda on certify_2d (find_resolvent_point's first y).
LAMBDA = 1e-3j


def layer_times(doc: dict) -> dict:
    ctx = cli.RunContext.from_document(doc, Path())
    grid, family, coupling, system = ctx.grid, ctx.family, ctx.beta, ctx.system
    h0, beta = system.h0, ctx.beta_vector()
    H = system(beta)
    ab, kl, ku = analytic._band_storage(H.matrix, H.dim)
    if ab[kl:kl + ku + 1].imag.any():
        raise RuntimeError("H(beta) is not real symmetric")
    support = family.support_family()
    params = cli._stummel_params(family, next(t for t in doc["tasks"] if t["task"] == "stummel"))
    return {
        "d": H.dim, "kd": ku, "terms": len(family), "probes": len(params.probe_points),
        "term_table_s": median_time(
            lambda: potentials._TermTable.of(family.terms, family.dim)),
        "band_eigenvalues_real_s": median_time(
            lambda: analytic._band_eigenvalues(H.matrix, H.dim)),
        "band_eigenvalues_complex_s": median_time(
            lambda: la.eigvals_banded(analytic._band_storage(H.matrix, H.dim)[0][kl:kl + ku + 1])),
        "disjoint_refinement_s": median_time(lambda: geometry.disjoint_refinement(support)),
        "intersection_stats_s": median_time(lambda: geometry.intersection_stats(support)),
        "check_fip_variant_s": median_time(lambda: geometry.check_fip_variant(support, 1.0)),
        "overlap_depth_s": median_time(lambda: bounds._overlap_depth(support.sets)),
        "sample_on_s": median_time(lambda: family.sample_on(grid)),
        "family_sweep_s": median_time(
            lambda: potentials._family_sweep(family, coupling, params)),
        "from_potentials_s": median_time(
            lambda: lattice.AffineFamily.from_potentials(h0, family)),
        "hamiltonian_s": median_time(lambda: system(beta)),
        "perturbation_s": median_time(lambda: system.perturbation(beta)),
        "laplacian_s": median_time(lambda: lattice.build_laplacian(grid)),
        "laplacian_10k_s": median_time(lambda: lattice.build_laplacian(LARGE_GRID)),
        "laplacian_spectrum_s": median_time(
            lambda: analytic._spectrum(lattice.build_laplacian(grid))),
        "gamma_membership_s": median_time(
            lambda: analytic.gamma_membership(system, beta, LAMBDA)),
        "gamma_membership_10k_s": gamma_membership_10k(),
    }


def gamma_membership_10k() -> float | None:
    """One `gamma_membership` of the 100 x 100 Laplacian, or None for a
    checkout whose `gamma_membership` reduces the band (no
    `analytic._gram_lower_bound`)."""
    if not hasattr(analytic, "_gram_lower_bound"):
        return None
    H = lattice.build_laplacian(LARGE_GRID)
    return median_time(lambda: analytic.gamma_membership(lambda _: H, None, LAMBDA))


def measure() -> dict:
    doc = workloads.certify_2d(SEED)
    return {
        "scenario": f"perfbench/workloads.py certify_2d, seed {SEED}",
        "layers": layer_times(doc),
        "tasks": task_times(doc, ("geometry", "stummel", "bounds")),
        "band_reductions": calls_per_task(doc, analytic, "_band_eigenvalues"),
        "env": environment(),
    }


if __name__ == "__main__":
    main(__file__, measure)

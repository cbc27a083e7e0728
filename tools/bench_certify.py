"""Layer and task timings of the certify path (geometry, stummel, bounds) on
the certify_2d benchmark scenario at seed 3, written as JSON.

The scenario is 128 box-supported Gaussian bumps on a 24 x 24 grid
(d = 576), built by `perfbench/workloads.py`.  Layers: one
`analytic._band_eigenvalues` call on H(beta) (a real symmetric band of
width 24, reduced in real storage; each call reduces anew, where
`analytic._spectrum` keeps one reduction per operator) next to the same
band reduced in complex storage; one `geometry.disjoint_refinement` and one
`geometry.check_fip_variant` (n1 at radius 1) of the 128 supports; one
`PotentialFamily.sample_on` of the grid; one Stummel probe sweep
(`potentials._family_sweep` on the probes and quadrature of the stummel
task); one `lattice.AffineFamily.from_potentials`; the family's term table
(`potentials._TermTable.of`), which a family builds once and the sample_on,
sweep and from_potentials layers reuse; one H(beta) and one V(beta); one
`lattice.build_laplacian` of the scenario's grid and of a 100 x 100 grid
(d = 10^4), which includes the closed-form spectrum where the Laplacian
carries one, and one `build_laplacian` of the scenario's grid followed by
`analytic._spectrum` (a band reduction where the Laplacian carries none).
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

import numpy as np
import scipy.linalg as la

from bench_common import calls_per_task, environment, main, median_time, task_times
from specpert import analytic, cli, geometry, lattice, potentials, serialize

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEED = 3
LARGE_GRID = lattice.Grid(extent=((0.0, 1.0), (0.0, 1.0)), points=(100, 100))


def stummel_params(doc: dict, family) -> potentials.StummelParams:
    """The probes and quadrature of the scenario's stummel task, as
    `cli.task_stummel` builds them."""
    spec = next(t for t in doc["tasks"] if t["task"] == "stummel")
    union = geometry.SupportSet(tuple(b for t in family.terms for b in t.support.boxes))
    probes = potentials.make_probe_grid(union, margin=1.0,
                                        density=int(spec.get("probe_density", 7)))
    return potentials.StummelParams(rho=float(spec.get("rho", 1.5)), m=family.dim,
                                    quad_order=int(spec.get("quad_order", 32)),
                                    probe_points=probes)


def layer_times(doc: dict) -> dict:
    grid = serialize.grid_from_dict({"schema": 1, **doc["grid"]})
    family = cli.build_family(doc["family"], np.random.default_rng(int(doc["seed"])))
    coupling = serialize.coupling_from_dict({"schema": 1, **doc["beta"]})
    h0 = lattice.build_laplacian(grid)
    system = lattice.AffineFamily.from_potentials(h0, family)
    beta = np.asarray(doc["beta"]["values"], dtype=complex)
    H = system(beta)
    ab, kl, ku = analytic._band_storage(H.matrix, H.dim)
    if ab[kl:kl + ku + 1].imag.any():
        raise RuntimeError("H(beta) is not real symmetric")
    support = family.support_family()
    params = stummel_params(doc, family)
    return {
        "d": H.dim, "kd": ku, "terms": len(family), "probes": len(params.probe_points),
        "term_table_s": median_time(
            lambda: potentials._TermTable.of(family.terms, family.dim)),
        "band_eigenvalues_real_s": median_time(
            lambda: analytic._band_eigenvalues(H.matrix, H.dim)),
        "band_eigenvalues_complex_s": median_time(
            lambda: la.eigvals_banded(analytic._band_storage(H.matrix, H.dim)[0][kl:kl + ku + 1])),
        "disjoint_refinement_s": median_time(lambda: geometry.disjoint_refinement(support)),
        "check_fip_variant_s": median_time(lambda: geometry.check_fip_variant(support, 1.0)),
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
    }


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

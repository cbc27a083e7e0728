"""Layer and task timings of the certify path (geometry, stummel, bounds) on
the certify_2d benchmark scenario at seed 3, written as JSON.

The scenario is 128 box-supported Gaussian bumps on a 24 x 24 grid
(d = 576), built by `perfbench/workloads.py`.  Layers: one
`analytic._band_eigenvalues` call on H(beta) (a real symmetric band of
width 24, reduced in real storage; each call reduces anew, where
`analytic._spectrum` keeps one reduction per operator) next to the same
band reduced in complex storage; one `geometry.disjoint_refinement` of the
128 supports; one `lattice.AffineFamily.from_potentials`; one H(beta) and
one V(beta), next to the sequential sparse sum H(beta) was before it had a
fixed pattern.  Every
layer value is the median of REPEAT timings (`bench_common.py`).  Tasks: the geometry, stummel
and bounds times and the minor page faults of RUNS in-process scenario
runs, the first run (cold) and the median of the others.

Run from the repository root:

    PYTHONPATH=src python tools/bench_certify.py --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import scipy.linalg as la

from specpert import analytic, cli, geometry, lattice, serialize

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]
import workloads  # noqa: E402
from bench_common import environment, median_time, task_times  # noqa: E402

SEED = 3


def layer_times(doc: dict) -> dict:
    grid = serialize.grid_from_dict({"schema": 1, **doc["grid"]})
    family = cli.build_family(doc["family"], np.random.default_rng(int(doc["seed"])))
    h0 = lattice.build_laplacian(grid)
    system = lattice.AffineFamily.from_potentials(h0, family)
    beta = np.asarray(doc["beta"]["values"], dtype=complex)
    H = system(beta)
    ab, kl, ku = analytic._band_storage(H.matrix, H.dim)
    if ab[kl:kl + ku + 1].imag.any():
        raise RuntimeError("H(beta) is not real symmetric")

    def sequential_sum():
        mat = h0.matrix.copy()
        for b, op in zip(beta, system.terms):
            if b != 0:
                mat = mat + complex(b) * op
        return mat

    support = family.support_family()
    return {
        "d": H.dim, "kd": ku, "terms": len(system.terms),
        "band_eigenvalues_real_s": median_time(
            lambda: analytic._band_eigenvalues(H.matrix, H.dim)),
        "band_eigenvalues_complex_s": median_time(
            lambda: la.eigvals_banded(analytic._band_storage(H.matrix, H.dim)[0][kl:kl + ku + 1])),
        "disjoint_refinement_s": median_time(lambda: geometry.disjoint_refinement(support)),
        "from_potentials_s": median_time(
            lambda: lattice.AffineFamily.from_potentials(h0, family)),
        "hamiltonian_s": median_time(lambda: system(beta)),
        "perturbation_s": median_time(lambda: system.perturbation(beta)),
        "hamiltonian_sequential_sum_s": median_time(sequential_sum),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    doc = workloads.certify_2d(SEED)
    result = {
        "scenario": f"perfbench/workloads.py certify_2d, seed {SEED}",
        "command": "PYTHONPATH=src python tools/bench_certify.py " + " ".join(sys.argv[1:]),
        "layers": layer_times(doc),
        "tasks": task_times(doc, ("geometry", "stummel", "bounds")),
        "env": environment(),
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()

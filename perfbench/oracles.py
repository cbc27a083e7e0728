"""Correctness oracles for benchmark outputs.

Each oracle recomputes a reported quantity without the contour-integral
code: dense `eigh` of `lattice.assemble_hamiltonian(...)`, first-order
perturbation theory, the closed-form two-level spectrum, or a brute-force
pairwise box test.  `expect` computes the reference values once per
scenario; `check` compares one run's report and CSV tables against them.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from specpert import cli, lattice

# |reported - expected| <= tol * max(1, |expected|) for each check.
TOLERANCES = {
    "eigenvalue": 1e-9,   # track and sweep E against dense eigvalsh or closed form
    "taylor_a0": 1e-9,    # A_0 against E(base)
    "taylor_a1": 1e-9,    # A_1 against <psi0|V_t|psi0>
    "radius": 0.05,       # two-level radius of convergence against |b - a| / (2|c|)
}


class System:
    """H(beta) = H0 + sum_i beta_i V_i rebuilt from a scenario document."""

    def __init__(self, doc: dict):
        self.family = cli.build_family(doc["family"], np.random.default_rng(int(doc["seed"])))
        self.matrix = isinstance(self.family, cli.MatrixSystem)
        if self.matrix:
            self.h0 = np.asarray(self.family.h0, dtype=complex)
            self.terms = [np.asarray(t, dtype=complex) for t in self.family.terms]
        else:
            grid = lattice.Grid(
                extent=tuple((float(a), float(b)) for a, b in doc["grid"]["extent"]),
                points=tuple(int(n) for n in doc["grid"]["points"]))
            self.op0 = lattice.build_laplacian(grid)
            self.h0 = self.op0.to_dense()
            self.diagonals = [np.asarray(v, dtype=complex) for v in self.family.sample_on(grid)]
        self.n = len(self.family)
        values = [complex(v[0], v[1]) if isinstance(v, list) else complex(v)
                  for v in doc["beta"]["values"]]
        self.beta = np.zeros(self.n, dtype=complex)
        self.beta[: len(values)] = values

    def two_level(self):
        """(a, b, |c|) when H(beta) = [[a, beta c], [beta c*, b]], else None."""
        if not self.matrix or self.h0.shape != (2, 2) or self.n != 1:
            return None
        v = self.terms[0]
        if self.h0[0, 1] != 0 or v[0, 0] != 0 or v[1, 1] != 0 or v[0, 1] != np.conj(v[1, 0]):
            return None
        return self.h0[0, 0].real, self.h0[1, 1].real, abs(v[0, 1])

    def dense(self, beta) -> np.ndarray:
        beta = np.asarray(beta, dtype=complex)
        if self.matrix:
            return self.h0 + sum(b * t for b, t in zip(beta, self.terms))
        if np.any(beta.imag != 0):
            raise ValueError("oracles cover real couplings only")
        H = lattice.assemble_hamiltonian(self.op0, self.family,
                                         lattice.CouplingSeq(tuple(beta.real)))
        return H.to_dense()

    def eigenvalue(self, beta, k: int) -> complex:
        closed = self.two_level()
        if closed is not None and k == 0:
            a, b, c = closed
            z = complex(np.asarray(beta)[0])
            return (a + b) / 2 - np.sqrt(((a - b) / 2) ** 2 + z * z * c * c)
        return complex(np.linalg.eigvalsh(self.dense(beta))[k])

    def first_order(self, t, k: int) -> tuple[complex, complex]:
        """E_k(0) and <psi0|V_t|psi0> from a dense eigendecomposition of H0."""
        w, vecs = np.linalg.eigh(self.h0)
        psi0 = vecs[:, k]
        t = np.asarray(t, dtype=complex)
        if self.matrix:
            vt = sum(ti * m for ti, m in zip(t, self.terms))
            a1 = np.conj(psi0) @ vt @ psi0
        else:
            vt = sum(ti * d for ti, d in zip(t, self.diagonals))
            a1 = np.sum(np.abs(psi0) ** 2 * vt)
        return complex(w[k]), complex(a1)

    def n0(self) -> int:
        """Largest number of other supports meeting one support (closed boxes)."""
        boxes = [(np.asarray(b.lo), np.asarray(b.hi), i)
                 for i, term in enumerate(self.family.terms) for b in term.support.boxes]
        lo = np.array([b[0] for b in boxes])
        hi = np.array([b[1] for b in boxes])
        owner = np.array([b[2] for b in boxes])
        meet = np.all((lo[:, None, :] <= hi[None, :, :]) & (lo[None, :, :] <= hi[:, None, :]), axis=2)
        sets = np.zeros((self.n, self.n), dtype=bool)
        for p, q in zip(*np.nonzero(meet)):
            sets[owner[p], owner[q]] = True
        np.fill_diagonal(sets, False)
        return int(sets.sum(axis=1).max())


def _direction(spec: dict, n: int, default_axis: int) -> np.ndarray:
    if "direction" in spec:
        return np.asarray(spec["direction"], dtype=complex)
    t = np.zeros(n, dtype=complex)
    t[int(spec.get("axis", default_axis)) - 1] = 1.0
    return t


def expect(system: System, doc: dict) -> dict:
    """Reference values per task index of the scenario built as `system`."""
    out = {}
    for i, spec in enumerate(doc["tasks"]):
        task, k = spec["task"], int(spec.get("eig_index", 0))
        if task == "track":
            out[i] = {"E": system.eigenvalue(system.beta, k)}
        elif task == "sweep":
            steps = int(spec.get("steps", 11))
            lo, hi = (float(x) for x in spec.get("range", [0.0, 1.0]))
            t = _direction(spec, system.n, 1)
            s = [lo] if steps <= 1 else list(np.linspace(lo, hi, steps))
            out[i] = {"s": s, "E": [system.eigenvalue(x * t, k) for x in s]}
        elif task == "taylor":
            a0, a1 = system.first_order(_direction(spec, system.n, 1), k)
            ref = {"A0": a0, "A1": a1}
            closed = system.two_level()
            if closed is not None:
                a, b, c = closed
                ref["radius"] = abs(b - a) / (2 * c)
            out[i] = ref
        elif task == "geometry":
            out[i] = {"n0": system.n0()}
    return out


def _close(name: str, got: complex, want: complex, what: str) -> list[str]:
    tol = TOLERANCES[name] * max(1.0, abs(want))
    if not abs(got - want) <= tol:  # also catches NaN
        return [f"{what}: got {got}, expected {want} (tolerance {tol:.3g})"]
    return []


def _csv_rows(path: Path) -> list[list[float]]:
    with path.open() as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [[float(x) for x in row] for row in list(csv.reader(lines))[1:]]


def check(doc: dict, expected: dict, report, out_dir: Path) -> dict[int, list[str]]:
    """Oracle disagreements per task index (an empty list means agreement)."""
    failures: dict[int, list[str]] = {}
    for entry in report.tasks:
        i, result = entry["index"], entry["result"]
        ref = expected.get(i)
        if ref is None:
            continue
        task, bad = entry["task"], []
        if task == "track":
            bad += _close("eigenvalue", complex(*result["E"]), ref["E"], "track E")
        elif task == "sweep":
            rows = _csv_rows(out_dir / "sweep.csv")
            if len(rows) != len(ref["s"]):
                bad.append(f"sweep has {len(rows)} rows, expected {len(ref['s'])}")
            for row, s, want in zip(rows, ref["s"], ref["E"]):
                if abs(row[0] - s) > 1e-12:
                    bad.append(f"sweep row at s={row[0]}, expected s={s}")
                bad += _close("eigenvalue", complex(row[1], row[2]), want, f"sweep E at s={s:.6g}")
        elif task == "taylor":
            coeffs = [complex(row[1], row[2]) for row in _csv_rows(out_dir / "taylor.csv")]
            bad += _close("taylor_a0", coeffs[0], ref["A0"], "taylor A_0")
            bad += _close("taylor_a1", coeffs[1], ref["A1"], "taylor A_1")
            if "radius" in ref:
                radius = result["radius"]
                bad += _close("radius", math.nan if radius is None else radius,
                              ref["radius"], "taylor radius")
        elif task == "geometry":
            if result["n0"] != ref["n0"]:
                bad.append(f"n0 {result['n0']} != brute force {ref['n0']}")
        failures[i] = bad
    return failures


def task_outcomes(doc: dict, report, oracle_failures: dict[int, list[str]]) -> list[str | None]:
    """One entry per scenario task: None if it passed, else why it failed.

    A task fails if its report invariant is FAIL or an oracle disagrees.
    Invariants are matched to tasks in order by their `<task>.` prefix.
    """
    invariants: dict[str, list[dict]] = {}
    for inv in report.invariants:
        invariants.setdefault(inv["name"].split(".", 1)[0], []).append(inv)
    outcomes: list[str | None] = []
    for i, spec in enumerate(doc["tasks"]):
        pending = invariants.get(spec["task"], [])
        inv = pending.pop(0) if pending else None
        if inv is None:
            outcomes.append(f"task {i} ({spec['task']}) reported no invariant")
        elif not inv["pass"]:
            outcomes.append(f"invariant {inv['name']} FAIL: {inv['detail']}")
        elif oracle_failures.get(i):
            outcomes.append("; ".join(oracle_failures[i]))
        else:
            outcomes.append(None)
    return outcomes

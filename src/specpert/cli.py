"""Scenario-driven experiment runner.

A single YAML scenario declares the grid, the potential family, the coupling
sequence and a task list; `run` executes the tasks deterministically for a
fixed seed and writes a structured report plus CSV tables.

Exit codes: 0 all requested checks pass, 1 invariant failure, 2 usage or
schema error, 3 numerical failure.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np
import scipy.sparse as sp

from . import __version__, analytic, bounds, geometry, lattice, potentials, serialize
from .serialize import SchemaError

OUT_ENV_VAR = "SPECPERT_OUT"

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_TASKS = ("geometry", "stummel", "bounds", "track", "taylor", "sweep", "verify")

SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["schema", "seed", "family", "beta", "tasks"],
    "properties": {
        "schema": {"const": 1},
        "seed": {"type": "integer", "minimum": 0},
        "grid": {
            "type": "object",
            "required": ["extent", "points"],
            "properties": {
                "extent": {"type": "array", "minItems": 1, "maxItems": 3},
                "points": {"type": "array", "minItems": 1, "maxItems": 3},
            },
        },
        "family": {"type": "object", "required": ["kind"]},
        "beta": {"type": "object", "required": ["values"]},
        "tolerances": {"type": "object"},
        "tasks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["task"],
                "properties": {"task": {"enum": list(_TASKS)}},
            },
        },
    },
}

DEFAULT_TOLERANCES = {
    "track_residual": analytic.RESIDUAL_TOL,
    "projector_defect": analytic.DEFECT_TOL,
    "stummel": 1e-6,
}


@dataclass
class RunReport:
    """Per-task results plus an invariant pass/fail table."""

    provenance: dict
    tasks: list[dict] = field(default_factory=list)
    invariants: list[dict] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)  # stderr only

    @property
    def passed(self) -> bool:
        return all(inv["pass"] for inv in self.invariants)

    def add_invariant(self, name: str, ok: bool, detail: str = ""):
        self.invariants.append({"name": name, "pass": bool(ok), "detail": detail})

    def to_document(self) -> dict:
        # Wall-clock timings and notes are intentionally excluded: outputs
        # must be byte-identical across runs with the same scenario and seed.
        return {
            "schema": serialize.SCHEMA_VERSION,
            "provenance": self.provenance,
            "tasks": self.tasks,
            "invariants": self.invariants,
        }


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: Path, header_comment: str, columns: list[str], rows: list[list]):
    lines = [f"# {line}" for line in header_comment.splitlines()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


# ---------------------------------------------------------------------------
# Scenario loading


class ScenarioError(Exception):
    pass


@functools.cache
def _scenario_validator():
    """A validator of SCENARIO_SCHEMA, built once.  The schema itself is
    checked against its metaschema by the tests, not on every load."""
    import jsonschema

    return jsonschema.validators.validator_for(SCENARIO_SCHEMA)(SCENARIO_SCHEMA)


def load_scenario(path: Path, overrides: tuple[str, ...] = ()) -> dict:
    import jsonschema

    try:
        doc = serialize.load_document(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except SchemaError as exc:
        raise ScenarioError(str(exc)) from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a mapping")
    for ov in overrides:
        if "=" not in ov:
            raise ScenarioError(f"override must look like key=value, got {ov!r}")
        key, _, raw = ov.partition("=")
        try:
            value = serialize.load_document(raw)
        except SchemaError as exc:
            raise ScenarioError(f"override {ov!r}: {exc}") from exc
        _apply_override(doc, key.strip(), value)
    error = jsonschema.exceptions.best_match(_scenario_validator().iter_errors(doc))
    if error is not None:
        loc = ".".join(str(p) for p in error.absolute_path) or "(root)"
        raise ScenarioError(f"scenario field {loc}: {error.message}") from error
    return doc


def _apply_override(doc: dict, dotted: str, value):
    """Set the field at the dotted path of `doc` to `value`; a list takes an
    integer index.  A missing last key of a mapping is added; any other path
    that names no field raises ScenarioError."""
    *parents, last = dotted.split(".")
    try:
        node = doc
        for part in parents:
            node = node[int(part) if isinstance(node, list) else part]
        node[int(last) if isinstance(node, list) else last] = value
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        raise ScenarioError(
            f"override {dotted!r} names no scenario field ({type(exc).__name__}: {exc})"
        ) from exc


@dataclass
class MatrixSystem:
    """Closed-form system: explicit H0 and perturbation matrices instead of
    a grid-sampled potential family."""

    h0: np.ndarray
    terms: list[np.ndarray]

    def __len__(self) -> int:
        return len(self.terms)


# The family field that sets the dimension of a grid-sampled family's terms.
_DIMENSION_FIELD = {"explicit": "terms", "bump_lattice": "origin", "disordered": "box"}


def build_family(spec: dict, rng: np.random.Generator):
    kind = spec["kind"]
    if kind == "matrix":
        h0 = np.asarray(spec["h0"], dtype=complex)
        terms = [np.asarray(t, dtype=complex) for t in spec.get("terms", [])]
        if h0.ndim != 2 or h0.shape[0] != h0.shape[1]:
            raise ScenarioError("family.h0 must be a square matrix")
        for i, t in enumerate(terms):
            if t.shape != h0.shape:
                raise ScenarioError(f"family.terms[{i}] shape differs from h0")
        return MatrixSystem(h0=h0, terms=terms)
    if kind == "explicit":
        return potentials.PotentialFamily(
            [serialize.term_from_dict(t, f"family.terms[{i}]")
             for i, t in enumerate(spec.get("terms", []))]
        )
    if kind == "bump_lattice":
        count = _family_field(spec, "count", 3, int)
        spacing = _family_field(spec, "spacing", 3.0, float)
        origin = _numbers("family field origin", spec.get("origin", [0.0]), (None,))
        width = _family_field(spec, "width", 0.4, float)
        height = _family_field(spec, "height", 1.0, float)
        half = _family_field(spec, "support_halfwidth", max(3 * width, 1.0), float)
        terms = []
        for i in range(count):
            center = origin.copy()
            center[0] += i * spacing
            support = geometry.SupportSet((geometry.Box(
                tuple(center - half), tuple(center + half)),))
            terms.append(potentials.PotentialTerm(
                profile=potentials.GaussianBump(tuple(center), width, height),
                support=support,
                center=tuple(center),
            ))
        return potentials.PotentialFamily(terms)
    if kind == "disordered":
        count = _family_field(spec, "count", 8, int)
        A = _family_field(spec, "A", 1.0, float)
        C = _family_field(spec, "C", 1.0, float)
        k = _family_field(spec, "k", 3.0, float)
        box = _numbers("family field box", spec.get("box", [[0.0, 4.0 * A * count]]),
                       (None, 2))
        centers = _separated_centers(rng, count, box, A)
        terms = [
            potentials.PotentialTerm(
                profile=potentials.DecayTail(tuple(c), C, k),
                center=tuple(c),
                decay=(C, k),
            )
            for c in centers
        ]
        return potentials.PotentialFamily(terms)
    raise ScenarioError(f"unknown family kind {kind!r}")


def _separated_centers(rng: np.random.Generator, count: int, box: np.ndarray,
                       A: float) -> np.ndarray:
    """Jittered-lattice placement guaranteeing min separation > 2A."""
    m = len(box)
    spacing = 2.0 * A * 1.25
    per_axis = max(1, int(math.ceil(count ** (1.0 / m))))
    jitter = 0.2 * A
    pts = []
    idx = np.indices([per_axis + 1] * m).reshape(m, -1).T
    for multi in idx[: count]:
        base = box[:, 0] + spacing * (multi + 0.5)
        pts.append(base + rng.uniform(-jitter, jitter, size=m))
    return np.asarray(pts[:count])


# ---------------------------------------------------------------------------
# Task execution


@dataclass
class RunContext:
    """What the tasks of one scenario run share: the scenario, its grid
    (None for a `matrix` family), family, coupling sequence, tolerances,
    output directory and report, and the family beta -> H(beta) with the
    last operator it gave.  `from_document` builds it."""

    scenario: dict
    grid: lattice.Grid | None
    family: "potentials.PotentialFamily | MatrixSystem"
    beta: lattice.CouplingSeq
    tol: dict
    out: Path
    report: RunReport

    _system: lattice.AffineFamily | None = None
    _last: tuple[bytes, lattice.DiscreteOperator] | None = None  # see `hamiltonian`
    note: str = ""  # the running task's stderr summary

    @classmethod
    def from_document(cls, doc: dict, out: Path) -> "RunContext":
        """The context of the validated scenario `doc`, writing to `out`: the
        family drawn with the scenario seed, the tolerances DEFAULT_TOLERANCES
        as the scenario overrides them, and an empty report.  ScenarioError
        for a grid-sampled family without a grid or with terms of another
        dimension than the grid's."""
        seed = int(doc["seed"])
        grid = serialize.grid_from_dict({"schema": 1, **doc["grid"]}) if "grid" in doc else None
        family = build_family(doc["family"], np.random.default_rng(seed))
        if not isinstance(family, MatrixSystem):
            if grid is None:
                raise ScenarioError("scenario needs a grid for this family kind")
            if family.dim != grid.dim:
                field = _DIMENSION_FIELD[doc["family"]["kind"]]
                raise ScenarioError(f"family field {field}: {family.dim}-D terms on a "
                                    f"{grid.dim}-D grid")
        report = RunReport(provenance={
            "schema_version": serialize.SCHEMA_VERSION,
            "seed": seed,
            "tool_version": __version__,
        })
        return cls(scenario=doc, grid=grid, family=family,
                   beta=serialize.coupling_from_dict({"schema": 1, **doc["beta"]}),
                   tol={**DEFAULT_TOLERANCES, **doc.get("tolerances", {})},
                   out=out, report=report)

    def potential_family(self, task: str) -> potentials.PotentialFamily:
        if not isinstance(self.family, potentials.PotentialFamily):
            raise ScenarioError(f"task {task!r} needs a grid-sampled family")
        return self.family

    @property
    def system(self) -> lattice.AffineFamily:
        """The family beta -> H(beta), built on first use."""
        if self._system is None:
            if isinstance(self.family, MatrixSystem):
                h0 = sp.csr_matrix(self.family.h0)
                self._system = lattice.AffineFamily(
                    lattice.DiscreteOperator(h0, hermitian=lattice.is_hermitian(h0)),
                    tuple(sp.csr_matrix(t) for t in self.family.terms))
            else:
                self._system = lattice.AffineFamily.from_potentials(
                    lattice.build_laplacian(self.grid), self.family)
        return self._system

    def hamiltonian(self, beta_vec: np.ndarray) -> lattice.DiscreteOperator:
        """H(beta) = H0 + sum_i beta_i V_i: the only place the CLI forms it.

        A beta bit-identical to the previous call's (as complex bytes) gets
        the same operator back, so the eigenvalues and delta it keeps
        (`analytic._spectrum`) are computed at most once: a task's contour
        placement, reference vector and first step at its base point share
        them.  The one entry lives on this context, that is for one
        `execute_scenario`.
        """
        key = np.asarray(beta_vec, dtype=complex).tobytes()
        if self._last is None or self._last[0] != key:
            self._last = (key, self.system(beta_vec))
        return self._last[1]

    def beta_vector(self) -> np.ndarray:
        vec = np.zeros(len(self.family), dtype=complex)
        vals = np.asarray(self.beta.values, dtype=complex)
        vec[: len(vals)] = vals
        return vec


def _place_contour(op: lattice.DiscreteOperator, eig_index: int,
                   q: int = 64) -> analytic.Contour:
    """Circle around the eig_index-th eigenvalue E_k, with radius half the
    distance min |E_k - E_j| to its nearest neighbor.  Hermitian eigenvalues
    come ascending from `analytic._spectrum` (a Laplacian's closed form, or
    the band, which unlike dense ``eigvalsh`` gives the same bits at any
    thread count) and stay on `op` for the certificates that read them
    next; complex ones from the dense
    ``eigvals``, ordered by real part, and the circle is centred at the
    complex E_k.
    Real parts within delta = d eps ||H||_1 (`lattice._weyl_delta`) of the
    previous one count as equal and are ordered by imaginary part,
    ascending, so of a conjugate pair index k takes Im E < 0 and k + 1
    Im E > 0, whatever the rounding of the real parts.  An eig_index
    outside 0..d-1 raises ScenarioError."""
    if not 0 <= eig_index < op.dim:
        raise ScenarioError(f"task field eig_index: {eig_index} is outside 0..{op.dim - 1}")
    if op.hermitian:
        vals = analytic._spectrum(op)[0]
    else:
        vals = np.sort_complex(np.linalg.eigvals(op.to_dense()))
        tied = np.cumsum(np.diff(vals.real, prepend=vals.real[0]) > lattice._weyl_delta(op))
        vals = vals[np.lexsort((vals.imag, tied))]
    E = vals[eig_index]
    gaps = [abs(E - v) for i, v in enumerate(vals) if i != eig_index]
    gap = min(gaps) if gaps else 1.0
    if gap <= 0:
        raise analytic.TrackingError(f"eigenvalue {eig_index} is degenerate")
    return analytic.Contour(center=complex(E), radius=gap / 2, q=q)


def _field(section: str, spec: dict, name: str, default, kind: type):
    """Field `name` of the `section` mapping `spec` ("task" or "family";
    `default` where it is absent) as a `kind` (int or float); ScenarioError
    naming the field for a value that is no number of that kind, such as
    null, a word or a list."""
    value = spec.get(name, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{section} field {name}: {value!r} is not a number") from None


_task_field = functools.partial(_field, "task")
_family_field = functools.partial(_field, "family")


def _numbers(field: str, value, shape: tuple) -> np.ndarray:
    """`value` as a float array of `shape` (None for an axis of any nonzero
    length), every entry finite; ScenarioError naming `field` otherwise."""
    try:
        values = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        values = None
    if (values is None or values.ndim != len(shape) or values.size == 0
            or any(n not in (None, v) for n, v in zip(shape, values.shape))
            or not np.isfinite(values).all()):
        dims = str(tuple("m" if n is None else n for n in shape)).replace("'", "")
        raise ScenarioError(f"{field}: {value!r} is not a finite array of shape {dims}")
    return values


def _task_contour(ctx: RunContext, spec: dict, base: np.ndarray) -> analytic.Contour:
    """The contour of a track, sweep or taylor task `spec`: `_place_contour`
    on H(base) around its eigenvalue `eig_index` (default 0), with
    `contour_nodes` (default 64) nodes."""
    return _place_contour(ctx.hamiltonian(base), _task_field(spec, "eig_index", 0, int),
                          q=_task_field(spec, "contour_nodes", 64, int))


def _task_direction(ctx: RunContext, spec: dict, axis: int) -> np.ndarray:
    """A sweep or taylor task's `direction`, zero-padded to the n couplings
    as `beta.values` is, else the unit vector of `axis`; ScenarioError for a
    longer direction, one with a non-finite or non-numeric coupling, or an
    axis outside 1..n."""
    n = len(ctx.family)
    if "direction" in spec:
        try:
            values = np.asarray(spec["direction"], dtype=complex)
        except (TypeError, ValueError):
            values = None
        if values is None or values.ndim != 1 or len(values) > n or not np.isfinite(values).all():
            raise ScenarioError(f"task field direction: {spec['direction']!r} is not "
                                f"a list of at most {n} finite couplings")
        return np.pad(values, (0, n - len(values)))
    if not 1 <= axis <= n:
        raise ScenarioError(f"task field axis: {axis} is outside 1..{n}")
    return np.pad(np.ones(1, dtype=complex), (axis - 1, n - axis))


def task_geometry(ctx: RunContext, spec: dict) -> dict:
    family = ctx.potential_family("geometry")
    sf = family.support_family()
    adjacency, n0 = geometry.intersection_stats(sf)
    n1 = family.n1(_task_field(spec, "radius", 1.0, float))
    partition = geometry.disjoint_refinement(sf)
    per_set = np.bincount(partition.members, minlength=len(sf) + 1)[1:].tolist()
    bound = 2 ** n0
    ok = all(c <= bound for c in per_set)
    ctx.report.add_invariant("geometry.cells_within_2^n0", ok,
                             f"max per-set cells {max(per_set)} vs bound {bound}")
    members, ptr = partition.members.tolist(), partition.ptr.tolist()
    rows = [[j, ";".join(map(str, members[a:b])), n]
            for j, (a, b, n) in enumerate(zip(ptr[:-1], ptr[1:], partition.boxes.tolist()))]
    _write_csv(
        ctx.out / "geometry_cells.csv",
        "disjoint refinement cells\n"
        "cell: cell id; index_set: 1-based original set indices (';' joined); "
        "boxes: number of boxes in the cell region",
        ["cell", "index_set", "boxes"],
        rows,
    )
    return {
        "n0": n0,
        "n1": n1,
        "cells": len(partition),
        "max_cells_per_set": max(per_set),
        "adjacency_sizes": [len(a) for a in adjacency],
        "pass": ok,
    }


def _stummel_params(family: potentials.PotentialFamily, spec: dict) -> potentials.StummelParams:
    """The quadrature and probes of a stummel task `spec`: order
    `quad_order` (default 32) at `rho` (default 1.5), and `probe_density`
    (default 7) probes per axis over the bounding box of the supports' union
    plus a margin of 1; ScenarioError for a term without a support."""
    if any(t.support is None for t in family.terms):
        raise ScenarioError("task 'stummel' needs a support for every term")
    union = geometry.SupportSet(tuple(b for t in family.terms for b in t.support.boxes))
    probes = potentials.make_probe_grid(union, margin=1.0,
                                        density=_task_field(spec, "probe_density", 7, int))
    return potentials.StummelParams(rho=_task_field(spec, "rho", 1.5, float), m=family.dim,
                                    quad_order=_task_field(spec, "quad_order", 32, int),
                                    probe_points=probes)


def task_stummel(ctx: RunContext, spec: dict) -> dict:
    family = ctx.potential_family("stummel")
    params = _stummel_params(family, spec)
    sb = potentials.weighted_sum_stummel_bound(family, ctx.beta, params)
    ok = sb.direct <= sb.bound + ctx.tol["stummel"]
    ctx.report.add_invariant("stummel.sum_bound_dominates", ok,
                             f"direct {sb.direct:.6g} vs bound {sb.bound:.6g}")
    _write_csv(
        ctx.out / "stummel_norms.csv",
        f"per-term Stummel norms, rho={params.rho}, m={params.m}\n"
        "term: 1-based index; M: probe-grid estimate of sup_x M_(v,rho)(x)",
        ["term", "M"],
        [[i + 1, float(Mi)] for i, Mi in enumerate(sb.norms)],
    )
    return {"rho": params.rho, "per_term_max": max(sb.norms), "bound": sb.bound,
            "direct": sb.direct, "pass": ok}


def task_bounds(ctx: RunContext, spec: dict) -> dict:
    beta_vec = ctx.beta_vector()
    h0 = ctx.system.h0
    if not h0.hermitian:
        # The band storage reads one triangle only, and the spectrum box and
        # the Kato margin hold for a self-adjoint H0 alone.
        raise ScenarioError("task 'bounds' needs a Hermitian H0")
    H = ctx.hamiltonian(beta_vec)
    # V(beta) is bounded, so (a, b) = (0, ||V(beta)||) holds exactly.
    rb = bounds.RelativeBound(0.0, ctx.system.perturbation(beta_vec).norm_bound())
    spectrum, delta = analytic._spectrum(h0)
    box = bounds.SpectrumBox(float(spectrum[0] - delta), float(spectrum[-1] + delta))
    result = {"a": rb.a, "b": rb.b, "E_min": box.E_min, "E_max": box.E_max}
    try:
        lam = bounds.find_resolvent_point(rb, box)
        margin = bounds.resolvent_margin(rb, box, lam)
        ok, smin = analytic.gamma_membership(lambda _: H, beta_vec, lam)
        result.update({"lambda": [lam.real, lam.imag], "margin": margin,
                       "sigma_min": smin})
        ctx.report.add_invariant("bounds.certified_point_resolvent", ok,
                                 f"margin {margin:.4g}, sigma_min {smin:.4g}")
    except bounds.CertificationError as exc:
        result["certification"] = str(exc)
        ctx.report.add_invariant("bounds.certified_point_resolvent", False, str(exc))
        ok = False
    result["pass"] = ok
    return result


def _contour_note(stats: analytic.BlockStats, tol: dict) -> str:
    """Stderr note of a track or sweep task: its work, the d x d projectors
    it built (none on the Hermitian filter path) and its worst defect and
    eigen-residual, each as a fraction of its tolerance."""
    return (f"factorizations {stats.factorizations}, rhs columns "
            f"{stats.rhs_columns}, full-P {stats.full_projectors}, defect/tol "
            f"{stats.max_projector_defect / tol['projector_defect']:.3g}, residual/tol "
            f"{stats.max_residual / tol['track_residual']:.3g}")


def _check_dense_limit(ctx: RunContext, task: str, beta_vec, needs: str) -> None:
    """Before any band reduction: ScenarioError (exit 2) if `task` `needs` a
    d x d array of a non-Hermitian H(beta_vec) above `lattice.DENSE_MAX_DIM`."""
    if ctx.system.h0.dim > lattice.DENSE_MAX_DIM and not ctx.hamiltonian(beta_vec).hermitian:
        raise ScenarioError(
            f"task {task!r} needs {needs} of the non-Hermitian H(beta), and its "
            f"dimension {ctx.system.h0.dim} exceeds the dense limit {lattice.DENSE_MAX_DIM}")


def _task_radius(spec: dict) -> float:
    """A taylor or verify task's `r`; ScenarioError unless it is positive
    and finite, as a disk of no or infinite radius certifies nothing."""
    r = _task_field(spec, "r", 0.2, float)
    if not 0 < r < math.inf:
        raise ScenarioError(f"task field r: {r} is not a positive finite radius")
    return r


def task_track(ctx: RunContext, spec: dict) -> dict:
    beta_vec = ctx.beta_vector()
    _check_dense_limit(ctx, "track", beta_vec, "the full projector")
    base = np.zeros_like(beta_vec)
    contour = _task_contour(ctx, spec, base)
    stats = analytic.BlockStats()
    psi0 = analytic._reference_vector(ctx.hamiltonian, base, contour, stats=stats)
    # No residual or defect limit here: the invariant below decides them
    # (exit 1); trace failures still raise (exit 3).
    res = analytic.track_eigenvalue(ctx.hamiltonian, beta_vec, contour, psi0,
                                    residual_tol=math.inf, defect_tol=math.inf,
                                    stats=stats)
    ctx.note = _contour_note(stats, ctx.tol)
    resid = res.residual
    ok = (resid <= ctx.tol["track_residual"]
          and res.defect <= ctx.tol["projector_defect"])
    ctx.report.add_invariant("track.residual_and_defect", ok,
                             f"residual {resid:.3g}, defect {res.defect:.3g}")
    _write_csv(
        ctx.out / "track.csv",
        "tracked eigenvalue at the scenario coupling\n"
        "re_e/im_e: eigenvalue (energy units); residual: ||H psi - E psi||/||psi||; "
        "trace_defect: |trace(P) - 1|",
        ["re_e", "im_e", "residual", "trace_defect"],
        [[res.E.real, res.E.imag, resid, res.trace_defect]],
    )
    return {"E": [res.E.real, res.E.imag], "residual": resid,
            "trace_defect": res.trace_defect,
            "contour": {"center": [contour.center.real, contour.center.imag],
                        "radius": contour.radius, "q": contour.q},
            "pass": ok}


def task_sweep(ctx: RunContext, spec: dict) -> dict:
    steps = _task_field(spec, "steps", 11, int)
    lo, hi = _numbers("task field range", spec.get("range", [0.0, 1.0]), (2,)).tolist()
    direction = _task_direction(ctx, spec, _task_field(spec, "axis", 1, int))
    targets = [lo] if steps <= 1 else list(np.linspace(lo, hi, steps))
    _check_dense_limit(ctx, "sweep", targets[-1] * direction, "the full projector")

    base = targets[0] * direction
    contour = _task_contour(ctx, spec, base)
    stats = analytic.BlockStats()
    psi0 = analytic._reference_vector(ctx.hamiltonian, base, contour, stats=stats)

    rows: list[list] = []
    halvings = 0
    failure: str | None = None
    reached = targets[0]  # the last coupling tracked to
    radius = contour.radius
    for target in targets:
        # Couplings still to reach, the next on top; a failed step halves it.
        pending = [target]
        attempts = 0
        while pending and attempts < 64:
            nxt = pending[-1]
            beta_vec = nxt * direction
            try:
                res = analytic.track_eigenvalue(
                    ctx.hamiltonian, beta_vec, contour, psi0,
                    residual_tol=ctx.tol["track_residual"],
                    defect_tol=ctx.tol["projector_defect"], stats=stats)
            except analytic.AnalyticError:
                attempts += 1
                halvings += 1
                mid = 0.5 * (reached + nxt)
                if abs(mid - nxt) < 1e-12:
                    failure = f"step to {nxt:.6g} failed after halving"
                    break
                pending.append(mid)
                continue
            contour = analytic.Contour(center=complex(res.E), radius=radius,
                                       q=contour.q)
            psi0 = res.psi / np.linalg.norm(res.psi)
            reached = pending.pop()
        if pending:
            failure = failure or f"step to {target:.6g} failed"
            rows.append([target, math.nan, math.nan, math.nan, math.nan])
            break
        rows.append([target, res.E.real, res.E.imag, res.residual, res.trace_defect])

    _write_csv(
        ctx.out / "sweep.csv",
        "eigenvalue sweep along the coupling direction\n"
        "s: sweep parameter (beta = s * direction); re_e/im_e: tracked "
        "eigenvalue (energy units); residual: ||H psi - E psi||/||psi||; "
        "trace_defect: |trace(P) - 1|",
        ["s", "re_e", "im_e", "residual", "trace_defect"],
        rows,
    )
    ctx.note = _contour_note(stats, ctx.tol)
    ok = failure is None
    ctx.report.add_invariant("sweep.completed", ok, failure or f"{len(rows)} rows")
    return {"rows": len(rows), "halvings": halvings, "failure": failure,
            "pass": ok}


def task_taylor(ctx: RunContext, spec: dict) -> dict:
    # M below 8 is raised to 8 (radius_of_convergence needs 9 coefficients).
    M = max(_task_field(spec, "M", 12, int), 8)
    q = _task_field(spec, "q", 128, float)
    if not (q.is_integer() and q > M):
        # q nodes give M + 1 distinct Fourier rows only for q > M.
        raise ScenarioError(f"task field q: {q:g} is not an integer above M = {M}")
    r = _task_radius(spec)
    direction = _task_direction(ctx, spec, 1)
    if not direction.any():
        raise ScenarioError(f"task field direction: {spec['direction']!r} is zero")
    direction = analytic.Direction(direction)
    base = ctx.beta_vector() * 0.0
    contour = _task_contour(ctx, spec, base)
    path = analytic.taylor_eigenpath(
        ctx.hamiltonian, base, direction, contour, r=r, M=M,
        q=int(q), residual_tol=ctx.tol["track_residual"],
        defect_tol=ctx.tol["projector_defect"])
    stats, r0 = path.stats, path.certified_radius
    ctx.note = (f"factorizations {stats.factorizations}, rhs columns "
                f"{stats.rhs_columns}, r/r0 {r / r0 if r0 > 0 else math.inf:.6g}, "
                f"rho/margin {stats.max_margin_ratio:.3g}, shift-invert samples "
                f"{stats.shift_invert}, block samples {stats.block_samples}, block defect/tol "
                f"{stats.max_defect / (ctx.tol['projector_defect'] / 10):.3g}, "
                f"sigma2/sigma1 {stats.max_rank_ratio:.3g}, fallback samples "
                f"{stats.fallbacks}, full-P {stats.full_projectors}, mirrored samples "
                f"{stats.mirrored}")
    _write_csv(
        ctx.out / "taylor.csv",
        "directional Taylor coefficients of the tracked eigenvalue\n"
        "m: order; re_a/im_a: coefficient A_m (energy units / zeta^m)",
        ["m", "re_a", "im_a"],
        [[m, c.real, c.imag] for m, c in enumerate(path.coefficients)],
    )
    # A radius estimate below the sampling radius contradicts the Cauchy
    # samples taken on |zeta| = r; a NaN estimate fails too.
    ok = path.radius >= r
    ctx.report.add_invariant("taylor.path_valid", ok,
                             f"radius estimate {path.radius:.6g}")
    return {"M": M,
            "radius": None if math.isinf(path.radius) else path.radius,
            "certified_radius": None if math.isinf(r0) else r0,
            "entire_to_tolerance": math.isinf(path.radius), "pass": ok}


def task_verify(ctx: RunContext, spec: dict) -> dict:
    """Kato resolvent records: zeta -> (H(beta0 + zeta t) - lambda0)^-1 is
    holomorphic on |zeta| <= r, certified in closed form by `analytic.kato_radius`
    at 2 base points x 2 directions, with lambda0 = 10i max(||H(beta0)||, 1)."""
    n = len(ctx.family)
    r = _task_radius(spec)
    rng = np.random.default_rng(int(ctx.scenario["seed"]) + 1)
    dense_dir = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    dirs = [np.eye(n, dtype=complex)[0], dense_dir / np.abs(dense_dir).max()]
    base_points = [np.zeros(n, dtype=complex), 0.5 * ctx.beta_vector()]
    radii = []
    for beta0 in base_points:
        H = ctx.hamiltonian(beta0)
        lam0 = 10j * max(H.norm_bound(), 1.0)
        radii += [analytic.kato_radius(H, ctx.system.perturbation(t), lam0) for t in dirs]
    failures = sum(not r < rho for rho in radii)
    rho = min(radii)
    ctx.note = (f"worst r|V_t|/sigma_lb {r / rho if rho > 0 else math.inf:.6g}, "
                f"certified radius {rho:.6g}")
    ctx.report.add_invariant("verify.analytic_family", failures == 0,
                             f"{failures} failed of {len(radii)}")
    return {"checks": len(radii), "failures": failures, "pass": failures == 0}


_TASK_FUNCS = {
    "geometry": task_geometry,
    "stummel": task_stummel,
    "bounds": task_bounds,
    "track": task_track,
    "taylor": task_taylor,
    "sweep": task_sweep,
    "verify": task_verify,
}


def execute_scenario(doc: dict, out_dir: Path) -> RunReport:
    ctx = RunContext.from_document(doc, out_dir)
    report = ctx.report
    for i, task_spec in enumerate(doc["tasks"]):
        name = task_spec["task"]
        key = f"{i}:{name}"
        t0 = time.perf_counter()
        result = _TASK_FUNCS[name](ctx, task_spec)
        report.timings[key] = time.perf_counter() - t0
        if ctx.note:
            report.notes[key], ctx.note = ctx.note, ""
        report.tasks.append({"task": name, "index": i, "result": result})
    _atomic_write(out_dir / "report.yaml",
                  serialize.dump_canonical(report.to_document()))
    return report


# ---------------------------------------------------------------------------
# Click interface


def _resolve_out(out: str | None) -> Path:
    if out:
        return Path(out)
    env = os.environ.get(OUT_ENV_VAR)
    return Path(env) if env else Path("specpert-out")


def _run_entry(scenario: str, out: str | None, seed: int | None,
               tol: float | None, overrides: tuple[str, ...],
               only_tasks: tuple[str, ...] = ()):
    all_overrides = list(overrides)
    if seed is not None:
        all_overrides.append(f"seed={seed}")
    try:
        doc = load_scenario(Path(scenario), tuple(all_overrides))
    except ScenarioError as exc:
        click.echo(f"scenario error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    if tol is not None:
        tols = doc.setdefault("tolerances", {})
        for key in DEFAULT_TOLERANCES:
            tols[key] = tol
    if only_tasks:
        doc["tasks"] = [t for t in doc["tasks"] if t["task"] in only_tasks]
    out_dir = _resolve_out(out)
    try:
        report = execute_scenario(doc, out_dir)
    except (analytic.AnalyticError, bounds.CertificationError,
            potentials.StummelError, potentials.TailDivergenceError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    except (ScenarioError, SchemaError, lattice.LatticeError,
            geometry.GeometryError, ValueError) as exc:
        click.echo(f"scenario error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    for name, dt in report.timings.items():
        note = report.notes.get(name)
        click.echo(f"  [{name}] {dt:.3f}s" + (f" {note}" if note else ""), err=True)
    for inv in report.invariants:
        status = "PASS" if inv["pass"] else "FAIL"
        click.echo(f"{status} {inv['name']}: {inv['detail']}")
    click.echo(f"report written to {out_dir / 'report.yaml'}")
    sys.exit(EXIT_OK if report.passed else EXIT_INVARIANT)


_common_options = [
    click.option("--scenario", required=True, type=click.Path(), help="Scenario YAML path."),
    click.option("--out", default=None, help=f"Output directory (or ${OUT_ENV_VAR})."),
    click.option("--seed", default=None, type=int, help="Override the scenario seed."),
    click.option("--tol", default=None, type=float, help="Override all tolerances."),
    click.option("--override", "overrides", multiple=True, metavar="KEY=VALUE",
                 help="Dotted-path scenario override, repeatable."),
]


def _with_common(f):
    for opt in reversed(_common_options):
        f = opt(f)
    return f


@click.group()
@click.version_option(__version__)
def main():
    """Scenario-driven spectral perturbation experiments."""


@main.command()
@_with_common
def run(scenario, out, seed, tol, overrides):
    """Execute every task in the scenario."""
    _run_entry(scenario, out, seed, tol, overrides)


@main.command()
@_with_common
def sweep(scenario, out, seed, tol, overrides):
    """Execute only the sweep tasks of the scenario."""
    _run_entry(scenario, out, seed, tol, overrides, only_tasks=("sweep",))


@main.command()
@_with_common
def verify(scenario, out, seed, tol, overrides):
    """Execute only the verify tasks of the scenario."""
    _run_entry(scenario, out, seed, tol, overrides, only_tasks=("verify",))


@main.command("show-schema")
def show_schema():
    """Print the scenario schema (JSON Schema as YAML)."""
    click.echo(serialize.dump_canonical(SCENARIO_SCHEMA))


if __name__ == "__main__":
    main()

"""In-memory span tracing of specpert's public functions.

A span is (name, start, end, parent, run id, failed).  `Tracer.install`
wraps each module's public functions, in every specpert namespace that
imported them, plus the two ways of building H(beta) and
`PotentialFamily.sample_on`; `uninstall` restores the originals.  Wrappers
record nothing while the tracer is inactive, so the same process can time
untraced and traced passes.  `layer_metrics` derives the per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

from specpert import analytic, bounds, cli, geometry, lattice, potentials, serialize

MODULES = (lattice, geometry, potentials, bounds, analytic, serialize, cli)
# Layers whose outermost spans are reported as a share of the traced run.
COVER_GROUPS = {
    **{layer: {layer} for layer in ("lattice", "geometry", "potentials", "bounds", "analytic")},
    "geometry_potentials": {"geometry", "potentials"},
}

NAME, START, END, PARENT, RUN, FAILED = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0
        self.active = False
        self.counters: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, value: float = 1):
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: float):
        self.counters[key] = max(self.counters.get(key, -np.inf), value)

    def wrap(self, name: str, fn, hook=None):
        """`fn` recorded as span `name`; `hook(args, kwargs, result)` runs
        untraced after each successful call to update counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0,
                    self.stack[-1] if self.stack else -1, self.run_id, False]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                self.active = False
                try:
                    hook(args, kwargs, result)
                finally:
                    self.active = True
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        hooks = {
            "analytic.resolvent_apply": self._on_solve,
            "analytic.riesz_projector": self._on_projector,
            "analytic.track_eigenvalue": self._on_track,
            "geometry.disjoint_refinement": self._on_refinement,
        }
        wrapped = {}
        for mod in MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            if mod is analytic:
                names = [*names, "_reference_vector"]
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    span = "lattice.hamiltonian" if attr == "assemble_hamiltonian" else f"{short}.{attr}"
                    wrapped[fn] = self.wrap(span, fn, hooks.get(span))
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
        for task, fn in list(cli._TASK_FUNCS.items()):
            self._patched.append((cli._TASK_FUNCS, task, fn))
            cli._TASK_FUNCS[task] = wrapped[fn]
        self._set(cli.RunContext, "hamiltonian",
                  self.wrap("lattice.hamiltonian", cli.RunContext.hamiltonian))
        self._set(potentials.PotentialFamily, "sample_on",
                  self.wrap("potentials.sample_on", potentials.PotentialFamily.sample_on))
        splu = spla.splu

        def counted_splu(*args, **kwargs):
            if self.active:
                self.add("splu")
            return splu(*args, **kwargs)

        self._set(spla, "splu", counted_splu)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- counters fed by hooks ----------------------------------------------

    def _on_solve(self, args, kwargs, result):
        self.add("rhs_cols", 1 if np.ndim(result) == 1 else np.shape(result)[1])

    def _on_projector(self, args, kwargs, result):
        self.peak("max_projector_defect", result.defect)

    def _on_track(self, args, kwargs, result):
        family, beta = args[0], args[1]
        H = family(beta)
        mat = H.matrix if isinstance(H, lattice.DiscreteOperator) else H
        resid = np.linalg.norm(mat @ result.psi - result.E * result.psi)
        self.peak("max_track_residual", float(resid / np.linalg.norm(result.psi)))

    def _on_refinement(self, args, kwargs, result):
        family = args[0]
        cells = 1
        for k in range(family.dim):
            faces = {b.lo[k] for s in family.sets for b in s.boxes}
            faces |= {b.hi[k] for s in family.sets for b in s.boxes}
            cells *= max(len(faces) - 1, 0)
        self.peak("arrangement_cells", cells)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "run", "failed"),
                                             span))) + "\n")


def layer_metrics(tracer: Tracer, runs: int, run_s: float) -> dict[str, float]:
    """Per-layer numbers per traced run, from the spans of runs 1..runs.

    `<name>.s` sums spans of that name not nested in another span of the same
    name; `self_s` subtracts the time covered by direct children;
    `<layer>.cover_frac` is the share of the mean traced run `run_s`
    covered by the outermost spans of that layer.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    failed: dict[str, int] = {}
    cover: dict[str, float] = {}
    for i, s in enumerate(spans):
        if s[RUN] < 1:
            continue
        name, dur = s[NAME], s[END] - s[START]
        up, p = [], s[PARENT]
        while p >= 0:
            up.append(spans[p][NAME])
            p = spans[p][PARENT]
        up_layers = {a.split(".", 1)[0] for a in up}
        calls[name] = calls.get(name, 0) + 1
        failed[name] = failed.get(name, 0) + s[FAILED]
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]
        if name not in up:
            total[name] = total.get(name, 0.0) + dur
        layer = name.split(".", 1)[0]
        for group, members in COVER_GROUPS.items():
            if layer in members and not up_layers & members:
                cover[group] = cover.get(group, 0.0) + dur

    per = 1.0 / max(runs, 1)
    m: dict[str, float] = {}

    def c(name):
        return calls.get(name, 0) * per

    def t(name):
        return total.get(name, 0.0) * per

    m["lattice.hamiltonian.calls"] = c("lattice.hamiltonian")
    m["lattice.hamiltonian.s"] = t("lattice.hamiltonian")
    m["analytic.resolvent_apply.calls"] = c("analytic.resolvent_apply")
    m["analytic.resolvent_apply.s"] = t("analytic.resolvent_apply")
    m["analytic.resolvent_apply.rhs_cols"] = tracer.counters.get("rhs_cols", 0) * per
    m["analytic.resolvent_apply.sparse_calls"] = tracer.counters.get("splu", 0) * per
    m["analytic.rhs_cols_per_solve"] = (tracer.counters.get("rhs_cols", 0)
                                        / max(calls.get("analytic.resolvent_apply", 0), 1))
    m["analytic.riesz_projector.calls"] = c("analytic.riesz_projector")
    m["analytic.riesz_projector.self_s"] = self_s.get("analytic.riesz_projector", 0.0) * per
    m["analytic.track_eigenvalue.calls"] = c("analytic.track_eigenvalue")
    m["analytic.track_eigenvalue.s"] = t("analytic.track_eigenvalue")
    m["analytic.track_eigenvalue.failed"] = failed.get("analytic.track_eigenvalue", 0) * per
    m["analytic.taylor_along.s"] = t("analytic.taylor_along")
    m["analytic.verify_analytic_family.s"] = t("analytic.verify_analytic_family")
    m["analytic.gamma_membership.s"] = t("analytic.gamma_membership")
    m["analytic.max_projector_defect"] = tracer.counters.get("max_projector_defect", 0.0)
    m["analytic.max_track_residual"] = tracer.counters.get("max_track_residual", 0.0)
    for fn in ("intersection_stats", "check_fip_variant", "disjoint_refinement"):
        m[f"geometry.{fn}.calls"] = c(f"geometry.{fn}")
        m[f"geometry.{fn}.s"] = t(f"geometry.{fn}")
    m["geometry.arrangement_cells"] = tracer.counters.get("arrangement_cells", 0)
    m["potentials.sample_on.calls"] = c("potentials.sample_on")
    m["potentials.sample_on.s"] = t("potentials.sample_on")
    m["potentials.stummel_class_norm.calls"] = c("potentials.stummel_class_norm")
    m["potentials.stummel_class_norm.s"] = t("potentials.stummel_class_norm")
    m["potentials.stummel_local_norm.calls"] = c("potentials.stummel_local_norm")
    m["potentials.weighted_sum_stummel_bound.s"] = t("potentials.weighted_sum_stummel_bound")
    m["bounds.estimate_relative_bound.s"] = t("bounds.estimate_relative_bound")
    m["bounds.find_resolvent_point.s"] = t("bounds.find_resolvent_point")
    m["serialize.dump_canonical.s"] = t("serialize.dump_canonical")
    m["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli.")) * per
    for group in COVER_GROUPS:
        m[f"{group}.cover_frac"] = cover.get(group, 0.0) * per / run_s if run_s > 0 else 0.0
    return m

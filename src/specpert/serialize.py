"""Canonical structured-text (YAML) schema, version 1.

One schema covers grids, operators, support families, packing configs,
potential terms and coupling sequences; sparse operators additionally
export to plain coordinate text (row, col, re, im).
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.sparse as sp
import yaml

from .geometry import Box, PackingConfig, SupportFamily, SupportSet
from .lattice import CouplingSeq, DiscreteOperator, Grid
from .potentials import (
    ConstantProfile,
    DecayTail,
    GaussianBump,
    PotentialTerm,
    PowerSpike,
)

SCHEMA_VERSION = 1

# libyaml's parser and emitter when PyYAML was built with it; the pure-Python
# classes read and write the same documents, only slower.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class SchemaError(ValueError):
    """Document violates the canonical schema."""


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise SchemaError(f"{where}: missing required field '{key}'")
    return doc[key]


def check_version(doc: dict, where: str = "document"):
    version = _require(doc, "schema", where)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{where}: unsupported schema version {version}")


# ---------------------------------------------------------------------------
# Grids and operators


def grid_to_dict(grid: Grid) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "grid",
        "extent": [[float(a), float(b)] for a, b in grid.extent],
        "points": list(grid.points),
    }


def grid_from_dict(doc: dict) -> Grid:
    check_version(doc, "grid")
    extent = tuple((float(a), float(b)) for a, b in _require(doc, "extent", "grid"))
    points = tuple(int(n) for n in _require(doc, "points", "grid"))
    return Grid(extent=extent, points=points)


def operator_to_coo_text(op: DiscreteOperator) -> str:
    """Coordinate text form: one 'row col re im' line per stored entry."""
    coo = op.matrix.tocoo()
    lines = [f"# dim {op.dim} hermitian {int(op.hermitian)}"]
    order = np.lexsort((coo.col, coo.row))
    for i in order:
        v = complex(coo.data[i])
        lines.append(f"{coo.row[i]} {coo.col[i]} {v.real!r} {v.imag!r}")
    return "\n".join(lines) + "\n"


def operator_from_coo_text(text: str) -> DiscreteOperator:
    rows, cols, vals = [], [], []
    dim, hermitian = None, False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            dim = int(parts[parts.index("dim") + 1])
            hermitian = bool(int(parts[parts.index("hermitian") + 1]))
            continue
        r, c, re_, im_ = line.split()
        rows.append(int(r))
        cols.append(int(c))
        vals.append(complex(float(re_), float(im_)))
    if dim is None:
        raise SchemaError("operator text: missing '# dim ...' header")
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    return DiscreteOperator(mat, hermitian=hermitian)


# ---------------------------------------------------------------------------
# Geometry


def _box_to_list(b: Box) -> list:
    return [[float(l), float(h)] for l, h in zip(b.lo, b.hi)]


def _box_from_list(spec, where: str) -> Box:
    try:
        lo = tuple(float(pair[0]) for pair in spec)
        hi = tuple(float(pair[1]) for pair in spec)
        return Box(lo, hi)
    except (TypeError, IndexError, ValueError) as exc:
        raise SchemaError(f"{where}: bad box spec {spec!r}: {exc}") from exc


def support_set_to_list(s: SupportSet) -> list:
    return [_box_to_list(b) for b in s.boxes]


def support_set_from_list(spec, where: str = "support") -> SupportSet:
    return SupportSet(tuple(_box_from_list(b, where) for b in spec))


def family_to_dict(family: SupportFamily) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "support_family",
        "sets": [support_set_to_list(s) for s in family.sets],
    }


def family_from_dict(doc: dict) -> SupportFamily:
    check_version(doc, "support_family")
    sets = _require(doc, "sets", "support_family")
    return SupportFamily(tuple(support_set_from_list(s) for s in sets))


def packing_to_dict(config: PackingConfig) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "packing_config",
        "centers": [[float(x) for x in c] for c in config.centers],
        "A": float(config.A),
    }


def packing_from_dict(doc: dict) -> PackingConfig:
    check_version(doc, "packing_config")
    return PackingConfig(
        centers=np.asarray(_require(doc, "centers", "packing_config"), dtype=float),
        A=float(_require(doc, "A", "packing_config")),
    )


# ---------------------------------------------------------------------------
# Potentials


_PROFILE_KINDS = {"constant", "gaussian", "power_spike", "decay_tail"}


def profile_from_dict(spec: dict, where: str = "profile"):
    kind = _require(spec, "kind", where)
    if kind == "constant":
        return ConstantProfile(value=complex(spec.get("value", 1.0)))
    if kind == "gaussian":
        return GaussianBump(
            center=tuple(float(x) for x in _require(spec, "center", where)),
            width=float(_require(spec, "width", where)),
            height=float(spec.get("height", 1.0)),
        )
    if kind == "power_spike":
        return PowerSpike(
            center=tuple(float(x) for x in _require(spec, "center", where)),
            alpha=float(_require(spec, "alpha", where)),
            scale=float(spec.get("scale", 1.0)),
        )
    if kind == "decay_tail":
        return DecayTail(
            center=tuple(float(x) for x in _require(spec, "center", where)),
            C=float(_require(spec, "C", where)),
            k=float(_require(spec, "k", where)),
        )
    raise SchemaError(f"{where}: unknown profile kind {kind!r}; "
                      f"expected one of {sorted(_PROFILE_KINDS)}")


def term_from_dict(spec: dict, where: str = "term") -> PotentialTerm:
    profile = profile_from_dict(_require(spec, "profile", where), f"{where}.profile")
    support = spec.get("support")
    center = spec.get("center", getattr(profile, "center", None))
    decay = spec.get("decay")
    return PotentialTerm(
        profile=profile,
        support=support_set_from_list(support, f"{where}.support") if support else None,
        center=tuple(float(x) for x in center) if center is not None else None,
        decay=(float(decay[0]), float(decay[1])) if decay else None,
    )


# ---------------------------------------------------------------------------
# Couplings


def coupling_to_dict(beta: CouplingSeq) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "coupling_seq",
        "values": [[complex(v).real, complex(v).imag] for v in beta.values],
        "p": "inf" if np.isinf(beta.p) else float(beta.p),
        "norm": float(beta.declared_norm),
    }


def coupling_from_dict(doc: dict) -> CouplingSeq:
    check_version(doc, "coupling_seq")
    raw = _require(doc, "values", "coupling_seq")
    values = tuple(
        complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
        for v in raw
    )
    p_raw = doc.get("p", "inf")
    p = np.inf if p_raw in ("inf", None) else float(p_raw)
    return CouplingSeq(values=values, p=p, declared_norm=doc.get("norm"))


# ---------------------------------------------------------------------------
# YAML I/O with deterministic output


def _native(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays to plain Python types."""
    if isinstance(obj, dict):
        return {k: _native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_native(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_native(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return [float(obj.real), float(obj.imag)]
    return obj


def dump_canonical(doc: Any) -> str:
    """Deterministic YAML: sorted keys, no anchors, plain floats."""
    return yaml.dump(_native(doc), Dumper=_Dumper, sort_keys=True,
                     default_flow_style=False)


def load_document(text: str) -> Any:
    try:
        return yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise SchemaError(f"malformed YAML: {exc}") from exc

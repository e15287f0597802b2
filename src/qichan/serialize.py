"""File formats and canonical JSON emission.

Channels: {"dim_in": n, "dim_out": m, "elements": [[[re, im], ...], ...]}
with each element a flat row-major list of [re, im] pairs; observables use
"dim"/"effects" analogously.  Numbers are written with 17 significant
digits so emitted files re-parse to bit-identical floats.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .channels import (
    Channel,
    DiscreteObservable,
    validate_channel,
    validate_observable,
)
from .correction import CodeSubspace
from .errors import SchemaError, ValidationError
from .numlin import DEFAULT_TOL, Tolerance


def format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite number in output")
    return format(float(x), ".17g")


def dumps_canonical(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{pad}  "{key}": ' + dumps_canonical(obj[key], indent + 2).lstrip())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, bool, str)) or v is None for v in seq)
        if flat:
            return "[" + ", ".join(dumps_canonical(v) for v in seq) + "]"
        items = [pad + "  " + dumps_canonical(v, indent + 2) for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def matrix_to_pairs(m: np.ndarray) -> list[list[float]]:
    flat = np.asarray(m, dtype=np.complex128).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def pairs_to_matrix(pairs, rows: int, cols: int, where: str) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != rows * cols:
        raise SchemaError(where, f"expected {rows * cols} [re, im] pairs")
    out = np.empty(rows * cols, dtype=np.complex128)
    for idx, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(where, f"entry {idx} is not an [re, im] pair")
        re, im = pair
        if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
            raise SchemaError(where, f"entry {idx} has non-numeric parts")
        out[idx] = complex(re, im)
    return out.reshape(rows, cols)


def channel_to_dict(c: Channel) -> dict:
    return {
        "dim_in": c.dim_in,
        "dim_out": c.dim_out,
        "elements": [matrix_to_pairs(e) for e in c.elements],
    }


def observable_to_dict(x: DiscreteObservable) -> dict:
    return {
        "dim": x.dim,
        "effects": [matrix_to_pairs(e) for e in x.effects],
    }


def _load_json(path: str | Path) -> dict:
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except OSError as exc:
        raise SchemaError(str(p), f"cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(str(p), f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(str(p), "top level must be an object")
    return data


def channel_from_dict(data: dict, where: str = "<channel>") -> Channel:
    for field in ("dim_in", "dim_out", "elements"):
        if field not in data:
            raise SchemaError(where, f"missing field '{field}'")
    dim_in, dim_out = data["dim_in"], data["dim_out"]
    if not isinstance(dim_in, int) or not isinstance(dim_out, int) or dim_in < 1 or dim_out < 1:
        raise SchemaError(where, "'dim_in'/'dim_out' must be positive integers")
    elements = data["elements"]
    if not isinstance(elements, list) or not elements:
        raise SchemaError(where, "'elements' must be a non-empty list")
    mats = [
        pairs_to_matrix(e, dim_out, dim_in, f"{where}: elements[{k}]")
        for k, e in enumerate(elements)
    ]
    return Channel.from_elements(mats)


def observable_from_dict(data: dict, where: str = "<observable>") -> DiscreteObservable:
    for field in ("dim", "effects"):
        if field not in data:
            raise SchemaError(where, f"missing field '{field}'")
    dim = data["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise SchemaError(where, "'dim' must be a positive integer")
    effects = data["effects"]
    if not isinstance(effects, list) or not effects:
        raise SchemaError(where, "'effects' must be a non-empty list")
    mats = [
        pairs_to_matrix(e, dim, dim, f"{where}: effects[{k}]") for k, e in enumerate(effects)
    ]
    return DiscreteObservable.from_effects(mats)


def checked_channel(c: Channel, tol: Tolerance = DEFAULT_TOL) -> Channel:
    """``c`` itself; trace preservation and complete positivity failures
    abort with the offending residual."""
    report = validate_channel(c, tol)
    if not report.trace_preserving:
        raise ValidationError("sum E^dag E = 1", report.tp_residual)
    if not report.completely_positive:
        raise ValidationError("Choi matrix PSD", -report.cp_min_eigenvalue)
    return c


def checked_observable(x: DiscreteObservable, tol: Tolerance = DEFAULT_TOL) -> DiscreteObservable:
    """``x`` itself; the first observable invariant that fails aborts
    with the offending residual."""
    report = validate_observable(x, tol)
    if report.violation is not None:
        raise ValidationError(*report.violation)
    return x


def parse_channel_file(path: str | Path, tol: Tolerance = DEFAULT_TOL) -> Channel:
    """Load and validate a channel (see :func:`checked_channel`)."""
    return checked_channel(channel_from_dict(_load_json(path), where=str(path)), tol)


def parse_observable_file(path: str | Path, tol: Tolerance = DEFAULT_TOL) -> DiscreteObservable:
    return checked_observable(observable_from_dict(_load_json(path), where=str(path)), tol)


def write_channel_file(path: str | Path, c: Channel) -> None:
    Path(path).write_text(dumps_canonical(channel_to_dict(c)) + "\n")


def write_observable_file(path: str | Path, x: DiscreteObservable) -> None:
    Path(path).write_text(dumps_canonical(observable_to_dict(x)) + "\n")


def detect_kind(path: str | Path) -> tuple[str, dict]:
    """('channel' or 'observable', judged by schema fields; the loaded file)."""
    data = _load_json(path)
    if "elements" in data:
        return "channel", data
    if "effects" in data:
        return "observable", data
    raise SchemaError(str(path), "neither a channel ('elements') nor an observable ('effects')")


def code_to_dict(code) -> dict:
    return {
        "dim": code.dim,
        "dim_code": code.dim_code,
        "isometry": matrix_to_pairs(code.v),
    }


def parse_code_file(path: str | Path):
    data = _load_json(path)
    for name in ("dim", "dim_code", "isometry"):
        if name not in data:
            raise SchemaError(str(path), f"missing field '{name}'")
    dim, dim_code = data["dim"], data["dim_code"]
    if not isinstance(dim, int) or not isinstance(dim_code, int) or dim < dim_code or dim_code < 1:
        raise SchemaError(str(path), "'dim' >= 'dim_code' >= 1 required")
    v = pairs_to_matrix(data["isometry"], dim, dim_code, f"{path}: isometry")
    return CodeSubspace.from_isometry(v)


def write_code_file(path: str | Path, code) -> None:
    Path(path).write_text(dumps_canonical(code_to_dict(code)) + "\n")


def algebra_to_dict(structure) -> dict:
    return {
        "dim": structure.dim,
        "dimension": structure.dimension,
        "block_dims": [list(b) for b in structure.block_dims],
        "central_projectors": [matrix_to_pairs(p) for p in structure.central_projectors],
        "basis_change": matrix_to_pairs(structure.basis_change),
        "basis": [matrix_to_pairs(b) for b in structure.carrier.basis],
    }


def stochastic_to_dict(sm) -> dict:
    return {
        "rows": sm.n_outputs,
        "cols": sm.n_inputs,
        "entries": [float(v) for v in sm.entries.reshape(-1)],
    }


def ensemble_to_dict(ens) -> dict:
    return {
        "priors": [float(p) for p in ens.priors],
        "states": [matrix_to_pairs(s) for s in ens.states],
    }

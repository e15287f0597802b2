"""File formats and canonical JSON and CSV emission.

Channels: {"dim_in": n, "dim_out": m, "elements": [[[re, im], ...], ...]}
with each element a flat row-major list of [re, im] pairs; observables use
"dim"/"effects" analogously.  The JSON and the CSV writer share one
number format with :func:`format_scalar`: floats get 17 significant
digits, so emitted files re-parse to bit-identical floats, and a
non-finite number is an error.  Each writer makes one pass over its
document: it builds one skeleton string with a slot of that float format
per float (other scalars formatted by :func:`format_scalar`, literal ``%``
escaped), checks once that every float is finite, and fills all slots with
one ``%``.

The writers take NumPy arrays, and this module alone turns them into the
file format (:func:`_array_values`): a complex array's last two axes are
one matrix, written as its row-major list of [re, im] pairs; a float array
is written as nested lists whose last axis is a row.  Every row of an
array repeats one skeleton.  An array of any other dtype is a TypeError.
A matrix is read from its pair list as one array, and the element or
effect list of a file as one stack, from one scan of its pair types and
one ``np.fromiter``.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .channels import (
    Channel,
    DiscreteObservable,
    require_trace_preserving,
    validate_observable,
)
from .correction import CodeSubspace
from .errors import SchemaError, ValidationError
from .numlin import DEFAULT_TOL, Tolerance


# the one float format: 17 significant digits re-parse to the same double
_SLOT = "%.17g"


def format_scalar(v) -> str:
    """The scalar format of the JSON and CSV writers (which write the
    floats of a document through ``_SLOT`` in bulk): floats with 17
    significant digits (a non-finite one is an error), integers exactly,
    JSON literals for None and bools, strings JSON-quoted."""
    if isinstance(v, (float, np.floating)):
        if not math.isfinite(v):
            raise ValueError("non-finite number in output")
        return _SLOT % float(v)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot serialize {type(v)!r}")


# a list whose items all have these types (or are None) is written on one line
_FLAT = (int, float, bool, str, type(None))


def _is_flat(seq) -> bool:
    return all(issubclass(t, _FLAT) for t in set(map(type, seq)))


def _scalars(seq, sep: str, floats: list) -> str:
    """The skeleton of the scalars of ``seq`` joined by ``sep``: a float
    slot per float, whose value is appended to ``floats``, and every other
    scalar formatted by :func:`format_scalar` with its ``%`` escaped."""
    parts = []
    for v in seq:
        if isinstance(v, float):
            floats.append(v)
            parts.append(_SLOT)
        else:
            parts.append(format_scalar(v).replace("%", "%%"))
    return sep.join(parts)


def _array_values(a: np.ndarray, floats: list) -> tuple[int, ...]:
    """Append the values of ``a`` to ``floats`` in row-major order and
    return the shape of the float lists it is written as: a complex
    array's last two axes become one list of [re, im] pairs, a float array
    keeps its shape, and any other dtype is a TypeError."""
    if np.issubdtype(a.dtype, np.complexfloating):
        a = np.stack((a.real, a.imag), axis=-1).reshape(*a.shape[:-2], math.prod(a.shape[-2:]), 2)
    elif not np.issubdtype(a.dtype, np.floating):
        raise TypeError(f"cannot serialize an array of {a.dtype}")
    floats.extend(a.ravel().tolist())
    return a.shape


def _nested(shape: tuple[int, ...], pad: str) -> str:
    """The JSON skeleton of a float array of ``shape``: nested lists, one
    line per row of the last axis, every row the same."""
    if not shape:
        return _SLOT
    if len(shape) == 1:
        return "[" + ", ".join([_SLOT] * shape[0]) + "]"
    if not shape[0]:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join([_nested(shape[1:], inner)] * shape[0]) + "\n" + pad + "]"


def _dump(obj, pad: str, floats: list) -> str:
    if isinstance(obj, np.ndarray):
        return _nested(_array_values(obj, floats), pad)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = [
            f'{inner}"{key}": '.replace("%", "%%") + _dump(obj[key], inner, floats)
            for key in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if _is_flat(obj):
            return "[" + _scalars(obj, ", ", floats) + "]"
        inner = pad + "  "
        items = [_dump(v, inner, floats) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return _scalars((obj,), "", floats)


def _fill(skeleton: str, floats: list) -> str:
    """``skeleton`` with its float slots filled from ``floats`` in one
    ``%``, after one check that every float is finite."""
    if not all(map(math.isfinite, floats)):
        raise ValueError("non-finite number in output")
    return skeleton % tuple(floats)


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, two-space indent, fixed float
    formatting.  Containers nest one per line; a list of scalars is one
    line.  Written in one pass (see the module docstring); every row of
    an array, such as a matrix's [re, im] pairs, repeats one skeleton."""
    floats: list = []
    return _fill(_dump(obj, "", floats), floats)


def dumps_csv(header: list[str], rows) -> str:
    """CSV text: the header line, then one line per row, written in one
    pass like :func:`dumps_canonical` and in the same number format."""
    floats: list = []
    if isinstance(rows, np.ndarray):
        n_rows, n_cols = _array_values(rows, floats)
        lines = [",".join([_SLOT] * n_cols)] * n_rows
    else:
        lines = [_scalars(r, ",", floats) for r in rows]
    return _fill("\n".join([",".join(header).replace("%", "%%"), *lines]) + "\n", floats)


def _bad_entry(pairs: list, where: str) -> SchemaError:
    """The error naming the first malformed entry of ``pairs``: not an
    [re, im] pair, or with a part that is not a JSON number.  With none,
    an integer part is too large for a float."""
    for idx, pair in enumerate(pairs):
        if type(pair) is not list or len(pair) != 2:
            return SchemaError(where, f"entry {idx} is not an [re, im] pair")
        if not all(type(part) in (int, float) for part in pair):
            return SchemaError(where, f"entry {idx} has non-numeric parts")
    return SchemaError(where, "entries must be finite")


def pairs_to_matrix(pairs, rows: int, cols: int, where: str) -> np.ndarray:
    """The rows x cols matrix of a row-major list of [re, im] pairs, each
    part a JSON number (bools are not)."""
    if not isinstance(pairs, list) or len(pairs) != rows * cols:
        raise SchemaError(where, f"expected {rows * cols} [re, im] pairs")
    well_formed = (
        set(map(type, pairs)) <= {list}
        and set(map(len, pairs)) <= {2}
        and set(map(type, chain.from_iterable(pairs))) <= {int, float}
    )
    try:
        # well formed, the pairs hold exactly 2 rows cols numbers
        parts = np.fromiter(chain.from_iterable(pairs), np.float64, 2 * rows * cols) if well_formed else None
    except OverflowError:  # an integer beyond the float range
        parts = None
    if parts is None:
        raise _bad_entry(pairs, where)
    if not np.isfinite(parts).all():
        # a literal beyond the float range, such as 1e400, parses to inf
        raise SchemaError(where, "entries must be finite")
    return parts.view(np.complex128).reshape(rows, cols)


# the part types of a well-formed [re, im] pair
_NUMBER_PAIRS = {(re, im) for re in (int, float) for im in (int, float)}


def _pair_lists_to_stack(lists: list, rows: int, cols: int, where: str) -> np.ndarray:
    """The (len(lists), rows, cols) stack of the matrices of a list of pair
    lists, as :func:`pairs_to_matrix` reads each one, from one schema scan
    and one ``np.fromiter`` over every list.  When either fails, each list
    goes through :func:`pairs_to_matrix` in turn, so the first malformed
    one raises its error, named ``where[k]``."""
    n = rows * cols
    try:
        # unpacking a pair into two JSON numbers leaves no other shape or
        # type: a dict or a string unpacks to strings
        well_formed = (
            set(map(type, lists)) <= {list}
            and set(map(len, lists)) <= {n}
            and {(type(re), type(im)) for pairs in lists for re, im in pairs} <= _NUMBER_PAIRS
        )
        parts = (
            np.fromiter(chain.from_iterable(chain.from_iterable(lists)), np.float64, 2 * n * len(lists))
            if well_formed
            else None
        )
    except (TypeError, ValueError, OverflowError):
        # a pair that does not unpack, or an integer beyond the float range
        parts = None
    if parts is None or not np.isfinite(parts).all():
        return np.array([pairs_to_matrix(pairs, rows, cols, f"{where}[{k}]") for k, pairs in enumerate(lists)])
    return parts.view(np.complex128).reshape(len(lists), rows, cols)


def channel_to_dict(c: Channel) -> dict:
    return {
        "dim_in": c.dim_in,
        "dim_out": c.dim_out,
        "elements": c.elements,
    }


def observable_to_dict(x: DiscreteObservable) -> dict:
    return {
        "dim": x.dim,
        "effects": x.effects,
    }


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _load_json(path: str | Path) -> dict:
    p = Path(path)
    try:
        # json accepts NaN and Infinity, which no field may hold
        data = json.loads(p.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except OSError as exc:
        raise SchemaError(str(p), f"cannot read file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(str(p), f"not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # json.JSONDecodeError, or a non-finite constant
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
    return Channel.from_elements(_pair_lists_to_stack(elements, dim_out, dim_in, f"{where}: elements"))


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
    return DiscreteObservable.from_effects(_pair_lists_to_stack(effects, dim, dim, f"{where}: effects"))


def checked_observable(x: DiscreteObservable, tol: Tolerance = DEFAULT_TOL) -> DiscreteObservable:
    """``x`` itself; the first observable invariant that fails aborts
    with the offending residual."""
    report = validate_observable(x, tol)
    if report.violation is not None:
        raise ValidationError(*report.violation)
    return x


def parse_channel_file(path: str | Path, tol: Tolerance = DEFAULT_TOL) -> Channel:
    """Load a channel; one that is not trace preserving at ``tol`` raises
    NotTracePreserving (see :func:`channels.require_trace_preserving`)."""
    c = channel_from_dict(_load_json(path), where=str(path))
    require_trace_preserving(c, tol)
    return c


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
        "isometry": code.v,
    }


def parse_code_file(path: str | Path, tol: Tolerance = DEFAULT_TOL):
    data = _load_json(path)
    for name in ("dim", "dim_code", "isometry"):
        if name not in data:
            raise SchemaError(str(path), f"missing field '{name}'")
    dim, dim_code = data["dim"], data["dim_code"]
    if not isinstance(dim, int) or not isinstance(dim_code, int) or dim < dim_code or dim_code < 1:
        raise SchemaError(str(path), "'dim' >= 'dim_code' >= 1 required")
    v = pairs_to_matrix(data["isometry"], dim, dim_code, f"{path}: isometry")
    return CodeSubspace.from_isometry(v, tol)


def write_code_file(path: str | Path, code) -> None:
    Path(path).write_text(dumps_canonical(code_to_dict(code)) + "\n")


def algebra_to_dict(structure) -> dict:
    return {
        "dim": structure.dim,
        "dimension": structure.dimension,
        "block_dims": [list(b) for b in structure.block_dims],
        "central_projectors": structure.central_projectors,
        "basis_change": structure.basis_change,
        "basis": structure.carrier.basis,
    }


def stochastic_to_dict(sm) -> dict:
    return {
        "rows": sm.n_outputs,
        "cols": sm.n_inputs,
        "entries": sm.entries.reshape(-1),
    }


def ensemble_to_dict(ens) -> dict:
    return {
        "priors": ens.priors,
        "states": ens.states,
    }

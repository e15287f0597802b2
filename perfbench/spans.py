"""Span recorder for the traced run, installed from outside the program.

``tracing(recorder)`` rebinds each function in ``TARGETS`` in every
``qichan.*`` namespace that holds it: modules import each other's
functions by name (``decoherence.commutant`` and ``correction.commutant``
are the same object as ``algebras.commutant``), so patching the defining
module alone would miss most calls.  ``kernels.*`` is reached by
attribute, so its module binding covers it.  Spans stay in memory and are
written as JSON lines after the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from metrics import PER_LAYER
from qichan.errors import Infeasible

def _commutant_counts(bound, result, exc):
    ops = list(bound.arguments["operators"])
    rows = 2 * len(ops) * ops[0].shape[0] ** 2 if ops else 0
    # full-matrices SVD builds a rows x rows complex U: computed, not measured
    return {"rows_max": rows, "u_bytes": rows * rows * 16}


def _intersect_counts(bound, result, exc):
    rows = 2 * bound.arguments["a"].dim ** 2
    return {"u_bytes": rows * rows * 16}


def _coarse_grain_counts(bound, result, exc):
    return {"infeasible": int(isinstance(exc, Infeasible))}


def _feasibility_counts(bound, result, exc):
    problems = int(bound.arguments["x"].shape[0])
    feasible = 0 if result is None else int((result[1] <= bound.arguments["hs_tol"]).sum())
    return {"problems": problems, "feasible": feasible}


def _ba_counts(bound, result, exc):
    iterations = 0 if result is None else len(result[2])
    return {"iterations": iterations, "capped": int(iterations >= bound.arguments["max_iter"])}


# (module, function, span name, counts taken from the bound call and its outcome)
TARGETS = (
    ("algebras", "commutant", "algebras.commutant", _commutant_counts),
    ("algebras", "intersect", "algebras.intersect", _intersect_counts),
    ("algebras", "center", "algebras.center", None),
    ("algebras", "structure_decompose", "algebras.structure_decompose", None),
    ("algebras", "span_of", "algebras.span_of", None),
    ("correction", "interaction_span", "correction.interaction_span", None),
    ("correction", "preserved_algebra", "correction.preserved_algebra", None),
    ("correction", "correction_channel", "correction.correction_channel", None),
    ("correction", "correctable_operator_system", "correction.correctable_operator_system", None),
    ("correction", "kl_check", "correction.kl_check", None),
    ("correction", "oqec_check", "correction.oqec_check", None),
    ("channels", "complement", "channels.complement", None),
    ("channels", "apply_dual", "channels.apply_dual", None),
    ("channels", "povm_probabilities", "channels.povm_probabilities", None),
    ("channels", "validate_channel", "channels.validate_channel", None),
    ("numlin", "op_norm", "numlin.op_norm", None),
    ("decoherence", "pointer_algebra", "decoherence.pointer_algebra", None),
    ("decoherence", "broadcast_pointer", "decoherence.broadcast_pointer", None),
    ("decoherence", "full_decoherence_check", "decoherence.full_decoherence_check", None),
    ("decoherence", "effect_region_sample", "decoherence.effect_region_sample", None),
    ("decoherence", "coarse_grain_solve", "decoherence.coarse_grain_solve", _coarse_grain_counts),
    ("kernels", "solve_product_simplex_lsq", "kernels.feasibility", _feasibility_counts),
    ("kernels", "blahut_arimoto", "kernels.ba", _ba_counts),
    ("capacity", "observable_capacity", "capacity.observable_capacity", None),
    ("capacity", "shannon_capacity", "capacity.shannon_capacity", None),
    ("catalog", "analyze_example", "catalog.analyze_example", None),
    ("catalog", "example_catalog", "catalog.example_catalog", None),
    ("serialize", "dumps_canonical", "serialize.dumps_canonical", None),
    ("serialize", "write_channel_file", "serialize.write_channel_file", None),
    ("serialize", "parse_channel_file", "serialize.parse_channel_file", None),
    ("cli", "main", "cli.main", None),
)

class Recorder:
    """Spans of one traced run: [name, start, end, parent, request, counts, error]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request: int | None = None

    def wrap(self, name: str, fn, counter):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][0] == name:
                # a recursive call stays inside its outermost span
                return fn(*args, **kwargs)
            sid = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.request, None, None]
            self.spans.append(span)
            self.stack.append(sid)
            result, exc = None, None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                span[6] = type(err).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[5] = counter(bound, result, exc)

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "request", "counts", "error")
        with path.open("w") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, **dict(zip(keys, span))}) + "\n")


@contextmanager
def tracing(recorder: Recorder):
    """Rebind every target in every ``qichan`` module for the duration."""
    originals = [
        (getattr(importlib.import_module(f"qichan.{module}"), attr), name, counter)
        for module, attr, name, counter in TARGETS
    ]
    modules = [m for n, m in sys.modules.items() if n == "qichan" or n.startswith("qichan.")]
    patched = []
    try:
        for original, name, counter in originals:
            wrapper = recorder.wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, original))
        yield recorder
    finally:
        for mod, key, original in reversed(patched):
            setattr(mod, key, original)


def summarize(recorder: Recorder, request_busy_s: float) -> tuple[dict, list]:
    """Per-layer metrics and per-span table rows from one traced pass.

    Self time is a span's duration minus its direct children's; the time
    requests took that no top-level span covers is reported as
    ``uncovered.self_s``.
    """
    spans = recorder.spans
    child_time = [0.0] * len(spans)
    top_level = 0.0
    for span in spans:
        duration = span[2] - span[1]
        if span[3] is None:
            top_level += duration
        else:
            child_time[span[3]] += duration
    per_name: dict[str, dict] = {}
    for sid, (name, start, end, _parent, _req, counts, error) in enumerate(spans):
        agg = per_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0, "iters": []})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child_time[sid]
        agg["errors"] += error is not None
        for key, value in (counts or {}).items():
            if key.endswith("_max") or key == "u_bytes":
                agg[key] = max(agg.get(key, 0), value)
            else:
                agg[key] = agg.get(key, 0) + value
        if name == "kernels.ba" and counts:
            agg["iters"].append(counts["iterations"])

    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    for name, agg in per_name.items():
        for key in ("calls", "self_s", "errors", "rows_max", "u_bytes", "infeasible", "problems", "iterations", "capped"):
            if f"{name}.{key}" in metrics and key in agg:
                metrics[f"{name}.{key}"] = float(agg[key])
        layer = name.split(".")[0]
        metrics[f"{layer}.self_s"] += agg["self_s"]
    feas = per_name.get("kernels.feasibility")
    if feas and feas["problems"]:
        metrics["kernels.feasibility.feasible_ratio"] = feas["feasible"] / feas["problems"]
        metrics["kernels.feasibility.ms_per_problem"] = 1e3 * feas["self_s"] / feas["problems"]
    ba = per_name.get("kernels.ba")
    if ba and ba["iters"]:
        metrics["kernels.ba.iterations_p50"] = float(statistics.median(ba["iters"]))
    metrics["uncovered.self_s"] = max(request_busy_s - top_level, 0.0)

    rows = sorted(
        ((name, agg["calls"], agg["total_s"], agg["self_s"]) for name, agg in per_name.items()),
        key=lambda row: -row[3],
    )
    return metrics, rows

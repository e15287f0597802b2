"""Command-line front end.

Loads channels/observables/codes from JSON, runs the requested analysis,
and writes a deterministic JSON report (plus CSV when asked).  Exit codes:
0 analysis ran and says yes, 2 analysis ran and says no (invalid channel,
failed code check, infeasible coarse-graining), 1 software or input error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import capacity as capacity_mod
from . import catalog, decoherence, serialize
from .channels import validate_channel, validate_observable
from .correction import (
    correctable_operator_system,
    correctable_report,
    interaction_span,
    kl_check,
    oqec_check,
    preserved_algebra,
    restrict,
)
from .errors import Infeasible, QichanError
from .numlin import Tolerance

SEED_ENV = "QICHAN_SEED"


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _tolerance(args) -> Tolerance:
    return Tolerance(abs_eps=args.tol, rank_rel=args.rank_rel)


def _emit(out: str | None, default_name: str, text: str) -> None:
    """Write ``text`` to ``out`` (``default_name`` inside it when it is a
    directory), or to stdout when no path is given."""
    if out:
        path = Path(out)
        if path.is_dir():
            path = path / default_name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    else:
        sys.stdout.write(text)


def _write_report(args, report: dict) -> None:
    _emit(args.out, f"{report['command']}.json", serialize.dumps_canonical(report) + "\n")


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            cells.append(serialize.format_float(v) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write_csv(args, header: list[str], rows) -> None:
    _emit(args.out, f"{args.command}.csv", _csv_text(header, rows))


def _base_report(args, inputs: dict[str, str], results: dict, exit_code: int) -> dict:
    return {
        "command": args.command,
        "inputs": {name: {"path": p, "sha256": _sha256(p)} for name, p in inputs.items()},
        "tolerance": {"abs_eps": args.tol, "rank_rel": args.rank_rel},
        "seed": args.seed,
        "results": results,
        "exit_code": exit_code,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


def _cmd_validate(args) -> int:
    tol = _tolerance(args)
    kind, data = serialize.detect_kind(args.input)
    if kind == "channel":
        c = serialize.channel_from_dict(data, where=args.input)
        rep = validate_channel(c, tol)
        ok = rep.trace_preserving and rep.completely_positive
        results = {
            "kind": "channel",
            "trace_preserving": rep.trace_preserving,
            "completely_positive": rep.completely_positive,
            "tp_residual": rep.tp_residual,
            "cp_min_eigenvalue": rep.cp_min_eigenvalue,
        }
    else:
        x = serialize.observable_from_dict(data, where=args.input)
        rep = validate_observable(x, tol)
        ok = rep.violation is None
        results = {"kind": "observable", **rep.residuals}
    results["valid"] = bool(ok)
    code = 0 if ok else 2
    _write_report(args, _base_report(args, {"input": args.input}, results, code))
    return code


def _cmd_preserved(args) -> int:
    tol = _tolerance(args)
    c = serialize.parse_channel_file(args.input, tol)
    structure = preserved_algebra(c, tol, args.seed)
    results = {
        "interaction_span_dimension": interaction_span(c).dimension,
        "preserved_algebra": serialize.algebra_to_dict(structure),
    }
    _write_report(args, _base_report(args, {"input": args.input}, results, 0))
    return 0


def _cmd_correct(args) -> int:
    tol = _tolerance(args)
    c = serialize.parse_channel_file(args.input, tol)
    inputs = {"input": args.input}
    report = correctable_report(c, tol, args.seed)
    results = {
        "preserved_algebra": serialize.algebra_to_dict(report.preserved_algebra),
        "correction_channel": serialize.channel_to_dict(report.correction),
        "residuals": report.residuals,
    }
    if args.code:
        inputs["code"] = args.code
        code = serialize.parse_code_file(args.code)
        s0 = correctable_operator_system(c, code, tol, args.seed)
        restricted = preserved_algebra(restrict(c, code), tol, args.seed)
        results["code_algebra"] = serialize.algebra_to_dict(restricted)
        results["operator_system_basis"] = serialize.matrix_to_pairs(s0.basis)
    _write_report(args, _base_report(args, inputs, results, 0))
    return 0


def _cmd_pointer(args) -> int:
    tol = _tolerance(args)
    c = serialize.parse_channel_file(args.input, tol)
    report = decoherence.pointer_algebra(c, tol, args.seed)
    results = {
        "pointer_algebra": serialize.algebra_to_dict(report.pointer_algebra),
        "pointer_effects": serialize.observable_to_dict(report.pointer_effects),
        "commutativity_residual": report.commutativity_residual,
    }
    _write_report(args, _base_report(args, {"input": args.input}, results, 0))
    return 0


def _cmd_kl(args) -> int:
    tol = _tolerance(args)
    c = serialize.parse_channel_file(args.input, tol)
    code = serialize.parse_code_file(args.code)
    rep = kl_check(c, code, tol)
    results = {
        "passes": rep.passes,
        "residual": rep.residual,
        "lambda": serialize.matrix_to_pairs(rep.lam),
        "n_elements": c.n_elements,
    }
    exit_code = 0 if rep.passes else 2
    _write_report(args, _base_report(args, {"input": args.input, "code": args.code}, results, exit_code))
    return exit_code


def _cmd_oqec(args) -> int:
    tol = _tolerance(args)
    c = serialize.parse_channel_file(args.input, tol)
    code = serialize.parse_code_file(args.code)
    d_a, d_b = args.split
    rep = oqec_check(c, code, (d_a, d_b), tol)
    results = {
        "passes": rep.passes,
        "residual": rep.residual,
        "lambdas": serialize.matrix_to_pairs(rep.lambdas),
        "split": [d_a, d_b],
    }
    exit_code = 0 if rep.passes else 2
    _write_report(args, _base_report(args, {"input": args.input, "code": args.code}, results, exit_code))
    return exit_code


def _cmd_classical(args) -> int:
    tol = _tolerance(args)
    gamma = serialize.parse_observable_file(args.gamma, tol)
    kind, data = serialize.detect_kind(args.input)
    inputs = {"input": args.input, "gamma": args.gamma}
    if kind == "observable":
        x = serialize.checked_observable(serialize.observable_from_dict(data, where=args.input), tol)
        try:
            sm = decoherence.coarse_grain_solve(x, gamma, tol=args.feas_tol)
            results = {
                "feasible": True,
                "stochastic_map": serialize.stochastic_to_dict(sm),
            }
            exit_code = 0
        except Infeasible as exc:
            results = {
                "feasible": False,
                "residual": exc.residual,
                "certified_lower_bound": exc.lower_bound,
            }
            exit_code = 2
    else:
        c = serialize.checked_channel(serialize.channel_from_dict(data, where=args.input), tol)
        report = decoherence.full_decoherence_check(
            c, gamma, samples=args.samples, tol=args.feas_tol, seed=args.seed
        )
        results = {
            "samples": report.samples,
            "feasible": report.feasible,
            "pass_rate": report.pass_rate,
            "max_residual": report.max_residual,
            "explicit_residual": report.explicit_residual,
            "certified_lower_bound": report.certified_lower_bound,
        }
        exit_code = 0 if report.feasible == report.samples else 2
    _write_report(args, _base_report(args, inputs, results, exit_code))
    return exit_code


def _cmd_broadcast(args) -> int:
    tol = _tolerance(args)
    c = serialize.parse_channel_file(args.input, tol)
    report = decoherence.broadcast_pointer(c, args.dims, tol, seed=args.seed)
    results = {
        "subsystem_dims": args.dims,
        "broadcast_algebra": serialize.algebra_to_dict(report.pointer_algebra),
        "pointer_effects": serialize.observable_to_dict(report.pointer_effects),
        "commutativity_residual": report.commutativity_residual,
    }
    _write_report(args, _base_report(args, {"input": args.input}, results, 0))
    return 0


def _cmd_sweep(args) -> int:
    times = args.times or np.linspace(0.0, args.total_time, args.steps).tolist()
    projs = catalog.basis_observable(args.env_size).effects
    sweep = decoherence.dephasing_sweep(list(projs), args.env_size, args.total_time, times)
    rows = sweep.rows()
    if args.format == "csv":
        _write_csv(args, ["t", "i", "m", "gamma"], rows)
        return 0
    results = {
        "env_size": args.env_size,
        "total_time": args.total_time,
        "times": [float(t) for t in sweep.times],
        "gamma_rows": rows,
        "snapshots": [serialize.channel_to_dict(s) for s in sweep.snapshots],
    }
    _write_report(args, _base_report(args, {}, results, 0))
    return 0


def _cmd_region(args) -> int:
    tol = _tolerance(args)
    c = serialize.parse_channel_file(args.input, tol)
    points = decoherence.effect_region_sample(c, args.grid)
    rows = [[float(x), float(z), float(t)] for x, z, t in points]
    if args.format == "csv":
        _write_csv(args, ["x", "z", "t"], rows)
        return 0
    results = {"grid": args.grid, "points": rows}
    _write_report(args, _base_report(args, {"input": args.input}, results, 0))
    return 0


def _cmd_capacity(args) -> int:
    tol = _tolerance(args)
    x = serialize.parse_observable_file(args.input, tol)
    estimate = capacity_mod.observable_capacity(
        x, restarts=args.restarts, seed=args.seed
    )
    results = {
        "bits": estimate.bits,
        # Holevo: no ensemble carries more than log2 d bits through d-dim states
        "upper_bound_bits": float(np.log2(min(x.n_outcomes, x.dim))),
        "ensemble": serialize.ensemble_to_dict(estimate.ensemble),
        "lower_bound": True,
    }
    _write_report(args, _base_report(args, {"input": args.input}, results, 0))
    return 0


def _cmd_example(args) -> int:
    tol = _tolerance(args)
    results = catalog.analyze_example(args.name, tol, args.seed, args.samples)
    bundle = catalog.example_catalog(args.name, args.seed)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        for label, chan in bundle.channels.items():
            serialize.write_channel_file(out_dir / f"{args.name}.{label}.channel.json", chan)
        for label, obs in bundle.observables.items():
            serialize.write_observable_file(out_dir / f"{args.name}.{label}.observable.json", obs)
        for label, code in bundle.codes.items():
            serialize.write_code_file(out_dir / f"{args.name}.{label}.code.json", code)
        if "gamma_rows" in results:
            csv = _csv_text(["t", "i", "m", "gamma"], results["gamma_rows"])
            _emit(args.out, f"{args.name}.gamma.csv", csv)
        if "region_points" in results:
            csv = _csv_text(["x", "z", "t"], results["region_points"])
            _emit(args.out, f"{args.name}.region.csv", csv)
    exit_code = 0 if results.get("passes", False) else 2
    report = _base_report(args, {}, {**results, "example": args.name}, exit_code)
    _emit(args.out, f"{args.name}.report.json", serialize.dumps_canonical(report) + "\n")
    return exit_code


def _number_list(text: str, kind, what: str) -> list:
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}") from None


def _dims(text: str) -> list[int]:
    return _number_list(text, int, "integers")


def _times(text: str) -> list[float]:
    return _number_list(text, float, "numbers")


def _count(text: str) -> int:
    """An integer >= 1 (sample counts, steps, grid and environment sizes);
    argparse reports a ValueError as an invalid value."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _duration(text: str) -> float:
    """A finite number > 0."""
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _split(text: str) -> list[int]:
    dims = _dims(text)
    if len(dims) != 2:
        raise argparse.ArgumentTypeError(f"expected dA,dB, got {text!r}")
    return dims


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--tol", type=float, default=1e-9, help="absolute operator-norm tolerance")
    shared.add_argument("--rank-rel", type=float, default=1e-10, help="relative rank cutoff")
    # a string default goes through ``type``, so a malformed $QICHAN_SEED is a usage error
    shared.add_argument("--seed", type=int, default=os.environ.get(SEED_ENV, "0"),
                        help=f"RNG seed (default from ${SEED_ENV} or 0)")
    shared.add_argument("--out", default=None, help="output path (directory for `example`)")
    samples = argparse.ArgumentParser(add_help=False)
    samples.add_argument("--samples", type=_count, default=64, help="sample count for randomized checks")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=("json", "csv"), default="json")

    parser = argparse.ArgumentParser(
        prog="qichan",
        description="Analyze what information a finite-dimensional quantum channel preserves, "
        "leaks, and lets you correct.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[shared], help="validate a channel or observable file")
    p.add_argument("input")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("preserved", parents=[shared], help="preserved algebra of a channel")
    p.add_argument("input")
    p.set_defaults(func=_cmd_preserved)

    p = sub.add_parser("correct", parents=[shared], help="correction channel and residuals")
    p.add_argument("input")
    p.add_argument("--code", default=None, help="code subspace JSON (adds operator system)")
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("pointer", parents=[shared], help="pointer algebra (kept and leaked)")
    p.add_argument("input")
    p.set_defaults(func=_cmd_pointer)

    p = sub.add_parser("kl", parents=[shared], help="scalar code-correctability check")
    p.add_argument("input")
    p.add_argument("--code", required=True)
    p.set_defaults(func=_cmd_kl)

    p = sub.add_parser("oqec", parents=[shared], help="subsystem code-correctability check")
    p.add_argument("input")
    p.add_argument("--code", required=True)
    p.add_argument("--split", required=True, type=_split, help="dA,dB factorization of the code")
    p.set_defaults(func=_cmd_oqec)

    p = sub.add_parser("classical", parents=[shared, samples],
                       help="coarse-graining feasibility against a reference observable")
    p.add_argument("input", help="observable (single solve) or channel (sampled check)")
    p.add_argument("--gamma", required=True, help="reference observable JSON")
    p.add_argument("--feas-tol", type=float, default=decoherence.FEASIBILITY_TOL)
    p.set_defaults(func=_cmd_classical)

    p = sub.add_parser("broadcast", parents=[shared], help="algebra broadcast to every subsystem")
    p.add_argument("input")
    p.add_argument("--dims", required=True, type=_dims,
                   help="comma-separated destination dimensions")
    p.set_defaults(func=_cmd_broadcast)

    p = sub.add_parser("sweep", parents=[shared, table], help="time-resolved dephasing weights")
    p.add_argument("--env-size", type=_count, default=4, dest="env_size")
    p.add_argument("--total-time", type=_duration, default=1.0, dest="total_time")
    p.add_argument("--steps", type=_count, default=11)
    p.add_argument("--times", default=None, type=_times,
                   help="comma-separated times (overrides --steps)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("region", parents=[shared, table], help="preserved-effect region coordinates")
    p.add_argument("input")
    p.add_argument("--grid", type=_count, default=24)
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("capacity", parents=[shared], help="capacity lower bound of an observable")
    p.add_argument("input")
    p.add_argument("--restarts", type=int, default=8)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("example", parents=[shared, samples], help="build and check a bundled example")
    p.add_argument("name", help=f"one of: {', '.join(catalog.EXAMPLE_NAMES)}")
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # usage errors (argparse exits 2) are input errors, not a "no"
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except QichanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

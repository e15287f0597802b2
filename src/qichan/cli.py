"""Command-line front end.

Loads channels/observables/codes from JSON, runs the requested analysis,
and writes a deterministic JSON report (plus CSV when asked).  Exit codes:
0 analysis ran and says yes, 2 analysis ran and says no (invalid channel,
failed code check, infeasible coarse-graining), 1 software or input error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import capacity as capacity_mod
from . import catalog, decoherence, serialize
from .algebras import block_pattern_residual
from .channels import require_trace_preserving, validate_channel, validate_observable
from .correction import (
    _operator_system,
    correctable_report,
    correction_channel,
    interaction_span_dimension,
    kl_check,
    oqec_check,
    preserved_algebra,
    restrict,
)
from .errors import Infeasible, QichanError
from .numlin import DEFAULT_TOL, Tolerance

SEED_ENV = "QICHAN_SEED"


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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


# CSV headers: the dephasing weights of a sweep and the effect-region points
_HEADERS = {"gamma": ["t", "i", "m", "gamma"], "region": ["x", "z", "t"]}


def _write_report(args, results: dict, exit_code: int, default_name: str) -> None:
    """The one report format; ``inputs`` names each file argument the
    command was given (``input``, ``code``, ``gamma``) with its sha256."""
    names = ("input", "code", "gamma")
    paths = {name: getattr(args, name) for name in names if getattr(args, name, None)}
    report = {
        "command": args.command,
        "inputs": {name: {"path": p, "sha256": _sha256(p)} for name, p in paths.items()},
        "tolerance": {"abs_eps": args.tol, "rank_rel": args.rank_rel},
        "seed": args.seed,
        "results": results,
        "exit_code": exit_code,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    _emit(args.out, default_name, serialize.dumps_canonical(report) + "\n")


def _cmd_validate(args, tol: Tolerance) -> tuple[dict | None, int]:
    kind, data = serialize.detect_kind(args.input)
    if kind == "channel":
        c = serialize.channel_from_dict(data, where=args.input)
        rep = validate_channel(c, tol)
        ok = rep.trace_preserving
        results = {"kind": "channel", "trace_preserving": ok, "tp_residual": rep.tp_residual}
    else:
        x = serialize.observable_from_dict(data, where=args.input)
        rep = validate_observable(x, tol)
        ok = rep.violation is None
        results = {"kind": "observable", **rep.residuals}
    results["valid"] = bool(ok)
    return results, 0 if ok else 2


def _cmd_preserved(args, tol: Tolerance) -> tuple[dict | None, int]:
    c = serialize.parse_channel_file(args.input, tol)
    return {
        "interaction_span_dimension": interaction_span_dimension(c, tol),
        "preserved_algebra": serialize.algebra_to_dict(preserved_algebra(c, tol, args.seed)),
    }, 0


def _cmd_correct(args, tol: Tolerance) -> tuple[dict | None, int]:
    c = serialize.parse_channel_file(args.input, tol)
    report = correctable_report(c, tol, args.seed)
    structure = report.preserved_algebra
    results = {
        "preserved_algebra": serialize.algebra_to_dict(structure),
        "correction_channel": serialize.channel_to_dict(report.correction),
        "residuals": {**report.residuals, "block_pattern": block_pattern_residual(structure)},
    }
    if args.code:
        c0 = restrict(c, serialize.parse_code_file(args.code, tol))
        a0 = preserved_algebra(c0, tol, args.seed)
        s0 = _operator_system(c, a0, correction_channel(c0, tol), tol)
        results["code_algebra"] = serialize.algebra_to_dict(a0)
        results["operator_system_basis"] = s0.basis
    return results, 0


def _pointer_results(report, algebra_key: str) -> dict:
    """The fields ``pointer`` and ``broadcast`` share."""
    return {
        algebra_key: serialize.algebra_to_dict(report.pointer_algebra),
        "pointer_effects": serialize.observable_to_dict(report.pointer_effects),
        "commutativity_residual": report.commutativity_residual,
    }


def _cmd_pointer(args, tol: Tolerance) -> tuple[dict | None, int]:
    c = serialize.parse_channel_file(args.input, tol)
    return _pointer_results(decoherence.pointer_algebra(c, tol, args.seed), "pointer_algebra"), 0


def _cmd_broadcast(args, tol: Tolerance) -> tuple[dict | None, int]:
    c = serialize.parse_channel_file(args.input, tol)
    report = decoherence.broadcast_pointer(c, args.dims, tol, seed=args.seed)
    return {"subsystem_dims": args.dims, **_pointer_results(report, "broadcast_algebra")}, 0


def _cmd_kl(args, tol: Tolerance) -> tuple[dict | None, int]:
    c = serialize.parse_channel_file(args.input, tol)
    rep = kl_check(c, serialize.parse_code_file(args.code, tol), tol)
    return {
        "passes": rep.passes,
        "residual": rep.residual,
        "lambda": rep.lambdas.reshape(c.n_elements, c.n_elements),
        "n_elements": c.n_elements,
    }, 0 if rep.passes else 2


def _cmd_oqec(args, tol: Tolerance) -> tuple[dict | None, int]:
    c = serialize.parse_channel_file(args.input, tol)
    rep = oqec_check(c, serialize.parse_code_file(args.code, tol), tuple(args.split), tol)
    return {
        "passes": rep.passes,
        "residual": rep.residual,
        "lambdas": rep.lambdas,
        "split": args.split,
    }, 0 if rep.passes else 2


def _cmd_classical(args, tol: Tolerance) -> tuple[dict | None, int]:
    gamma = serialize.parse_observable_file(args.gamma, tol)
    kind, data = serialize.detect_kind(args.input)
    if kind == "observable":
        x = serialize.checked_observable(serialize.observable_from_dict(data, where=args.input), tol)
        try:
            sm = decoherence.coarse_grain_solve(x, gamma, tol=args.feas_tol)
        except Infeasible as exc:
            return {
                "feasible": False,
                "residual": exc.residual,
                "certified_lower_bound": exc.lower_bound,
            }, 2
        return {"feasible": True, "stochastic_map": serialize.stochastic_to_dict(sm)}, 0
    c = serialize.channel_from_dict(data, where=args.input)
    require_trace_preserving(c, tol)
    report = decoherence.full_decoherence_check(
        c, gamma, samples=args.samples, tol=args.feas_tol, seed=args.seed
    )
    return {
        "samples": report.samples,
        "feasible": report.feasible,
        "pass_rate": report.pass_rate,
        "max_residual": report.max_residual,
        "explicit_residual": report.explicit_residual,
        "certified_lower_bound": report.certified_lower_bound,
    }, 0 if report.feasible == report.samples else 2


def _cmd_sweep(args, tol: Tolerance) -> tuple[dict | None, int]:
    times = args.times or np.linspace(0.0, args.total_time, args.steps)
    projs = catalog.basis_observable(args.env_size).effects
    sweep = decoherence.dephasing_sweep(list(projs), args.env_size, args.total_time, times)
    rows = sweep.rows()
    if args.format == "csv":
        _emit(args.out, "sweep.csv", serialize.dumps_csv(_HEADERS["gamma"], rows))
        return None, 0
    return {
        "env_size": args.env_size,
        "total_time": args.total_time,
        "times": sweep.times,
        "gamma_rows": rows,
        "snapshots": [serialize.channel_to_dict(s) for s in sweep.snapshots],
    }, 0


def _cmd_region(args, tol: Tolerance) -> tuple[dict | None, int]:
    c = serialize.parse_channel_file(args.input, tol)
    points = decoherence.effect_region_sample(c, args.grid)
    if args.format == "csv":
        _emit(args.out, "region.csv", serialize.dumps_csv(_HEADERS["region"], points))
        return None, 0
    return {"grid": args.grid, "points": points}, 0


def _cmd_capacity(args, tol: Tolerance) -> tuple[dict | None, int]:
    x = serialize.parse_observable_file(args.input, tol)
    estimate = capacity_mod.observable_capacity(x, restarts=args.restarts, tol=tol, seed=args.seed)
    return {
        "bits": estimate.bits,
        # Holevo: no ensemble carries more than log2 d bits through d-dim states
        "upper_bound_bits": float(np.log2(min(x.n_outcomes, x.dim))),
        "ensemble": serialize.ensemble_to_dict(estimate.ensemble),
        "lower_bound": True,
    }, 0


def _cmd_example(args, tol: Tolerance) -> tuple[dict | None, int]:
    bundle = catalog.example_catalog(args.name, args.seed)
    results = catalog.analyze_bundle(bundle, tol, args.seed)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for label, chan in bundle.channels.items():
            serialize.write_channel_file(out_dir / f"{args.name}.{label}.channel.json", chan)
        for label, obs in bundle.observables.items():
            serialize.write_observable_file(out_dir / f"{args.name}.{label}.observable.json", obs)
        for label, code in bundle.codes.items():
            serialize.write_code_file(out_dir / f"{args.name}.{label}.code.json", code)
        # each table is written once: to its CSV, which the report names
        for table, key in (("gamma", "gamma_rows"), ("region", "region_points")):
            if key in results:
                name = f"{args.name}.{table}.csv"
                (out_dir / name).write_text(serialize.dumps_csv(_HEADERS[table], results[key]))
                results[key] = name
    exit_code = 0 if results.get("passes", False) else 2
    _write_report(args, {**results, "example": args.name}, exit_code, f"{args.name}.report.json")
    return None, exit_code


def _number_list(text: str, kind, what: str, ok) -> list:
    """Comma-separated values of type ``kind``, each passing ``ok``."""
    try:
        values = [kind(v) for v in text.split(",")]
    except ValueError:
        values = None
    if values is None or not all(map(ok, values)):
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
    return values


def _dims(text: str) -> list[int]:
    return _number_list(text, int, "integers >= 1", lambda v: v >= 1)


def _times(text: str) -> list[float]:
    return _number_list(text, float, "finite numbers", math.isfinite)


def _count(text: str) -> int:
    """An integer >= 1 (sample counts, steps, restarts, grid and environment sizes);
    argparse reports a ValueError as an invalid value."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _seed(text: str) -> int:
    """An integer >= 0, as numpy's generators take."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _positive(text: str) -> float:
    """A finite number > 0 (tolerances, durations)."""
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _split(text: str) -> list[int]:
    dims = _dims(text)
    if len(dims) != 2:
        raise argparse.ArgumentTypeError(f"expected dA,dB, got {text!r}")
    return dims


def _seed_default() -> str:
    # a string default goes through ``type``, so a malformed $QICHAN_SEED is a usage error
    return os.environ.get(SEED_ENV, "0")


def _parser_and_seed() -> tuple[argparse.ArgumentParser, argparse.Action]:
    """The command-line parser and its ``--seed`` action, which every
    subcommand shares (parents hand their actions on, not copies)."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--tol", type=_positive, default=DEFAULT_TOL.abs_eps,
                        help="absolute operator-norm tolerance")
    shared.add_argument("--rank-rel", type=_positive, default=DEFAULT_TOL.rank_rel,
                        help="relative rank cutoff")
    seed = shared.add_argument("--seed", type=_seed, default=_seed_default(),
                               help=f"RNG seed (default from ${SEED_ENV} or 0)")
    shared.add_argument("--out", default=None, help="output path (directory for `example`)")
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

    p = sub.add_parser("classical", parents=[shared],
                       help="coarse-graining feasibility against a reference observable")
    p.add_argument("input", help="observable (single solve) or channel (sampled check)")
    p.add_argument("--gamma", required=True, help="reference observable JSON")
    p.add_argument("--samples", type=_count, default=64, help="sample count of the channel check")
    p.add_argument("--feas-tol", type=_positive, default=decoherence.FEASIBILITY_TOL)
    p.set_defaults(func=_cmd_classical)

    p = sub.add_parser("broadcast", parents=[shared], help="algebra broadcast to every subsystem")
    p.add_argument("input")
    p.add_argument("--dims", required=True, type=_dims,
                   help="comma-separated destination dimensions")
    p.set_defaults(func=_cmd_broadcast)

    p = sub.add_parser("sweep", parents=[shared, table], help="time-resolved dephasing weights")
    p.add_argument("--env-size", type=_count, default=4, dest="env_size")
    p.add_argument("--total-time", type=_positive, default=1.0, dest="total_time")
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
    p.add_argument("--restarts", type=_count, default=8)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("example", parents=[shared], help="build and check a bundled example")
    p.add_argument("name", help=f"one of: {', '.join(catalog.EXAMPLE_NAMES)}")
    p.set_defaults(func=_cmd_example)

    return parser, seed


# built on the first call of main, not at import
_main_parser = functools.cache(_parser_and_seed)


def main(argv: list[str] | None = None) -> int:
    """Run one command and write its results as ``{command}.json``; a
    command that returns None for them wrote its own output (CSV tables,
    the files and report of ``example``)."""
    parser, seed = _main_parser()
    # $QICHAN_SEED is read at each call, not when the parser was built
    seed.default = _seed_default()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # usage errors (argparse exits 2) are input errors, not a "no"
        return 1 if exc.code else 0
    try:
        results, exit_code = args.func(args, Tolerance(abs_eps=args.tol, rank_rel=args.rank_rel))
        if results is not None:
            _write_report(args, results, exit_code, f"{args.command}.json")
        return exit_code
    except QichanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

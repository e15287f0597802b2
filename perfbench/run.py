"""Benchmark of the qichan channel-analysis pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qichan is imported from its ``src``.
Workloads (see ``workloads/``): ``structure``, ``feasibility``,
``capacity``, ``examples``.  Each runs in its own fresh process as a
closed loop with one client over a seeded request mix, and every answer
is checked against an oracle.

``--trace 0`` prints the end-to-end metrics: set-up time (median of five
fresh processes, at the reference speed), throughput, median and tail latency (each request's
latency being its median over at least three passes), peak RSS and the
share of requests answered correctly.  ``--trace 1`` runs the mix untraced
for half the time, then one pass with spans recorded around each layer's
public functions, and prints the per-layer table; the spans go to
``.perfbench_out/``.  The last line of output is always one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, LAYERS, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# set-up is measured in this many fresh processes, the measuring one included
SETUP_RUNS = 5
DEADLINE_S = 170.0
# one BLAS thread: with two, OpenBLAS spin-waits whenever the host
# deschedules one of a small VM's vCPUs, and single calls were seen to take
# 30 times longer
BLAS_THREADS = "1"


class WorkerFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run_worker(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Start a worker; return its set-up time (start to ``READY``, divided
    by the speed factor the worker reports next) and its output lines.  The
    worker is killed and reaped if the deadline passes."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
    )
    setup_s, lines, buf = None, [], b""
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerFailed("worker passed the deadline")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                raw, buf = buf.split(b"\n", 1)
                line = raw.decode()
                if line == "READY" and setup_s is None:
                    setup_s = time.perf_counter() - t0
                lines.append(line)
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    speed = [float(line.split()[1]) for line in lines if line.startswith("SPEED ")]
    if code != 0 or setup_s is None or not speed:
        raise WorkerFailed(f"worker exited with code {code}")
    return setup_s / speed[0], lines


def _finite(x: float) -> float:
    return x if math.isfinite(x) else sys.float_info.max


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qichan" / "__init__.py").is_file():
        print(f"no qichan sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    # on SIGTERM unwind through _run_worker's cleanup, which reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(_run_worker([*common, "--setup-only"], deadline)[0])
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        extra = ["--trace", "1", "--spans", str(spans_path)] if args.trace else []
        setup_s, lines = _run_worker([*common, *extra], deadline)
        result = json.loads(lines[-1])
    except (WorkerFailed, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    env = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"requests per pass {result['requests_per_pass']}, attempted {result['attempted']}, "
          f"failed {result['failed']}, tail = p{round(100 * result['tail_q'])} (Harrell-Davis)")
    if args.trace:
        print(f"{'span':44s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'share':>7s}")
        layer = result["per_layer"]
        busy = sum(layer[f"{name}.self_s"] for name in LAYERS + ("uncovered",))
        for name, calls, total, self_s in result["span_table"]:
            print(f"{name:44s} {calls:8d} {total:10.4f} {self_s:10.4f} {self_s / busy:7.1%}")
        print(f"{'layer':44s} {'':8s} {'':10s} {'self_s':>10s} {'share':>7s}")
        for name in LAYERS + ("uncovered",):
            value = layer[f"{name}.self_s"]
            print(f"{name:44s} {'':8s} {'':10s} {value:10.4f} {value / busy:7.1%}")
        print(f"trace overhead: traced {result['traced']['throughput_rps']:.3f} 1/s - untraced "
              f"{result['untraced']['throughput_rps']:.3f} 1/s = {layer['trace.overhead_rps']:+.3f} 1/s")
        metrics = {name: {"value": _finite(layer[name]), "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        e2e = dict(result["end_to_end"], setup_s=statistics.median(setups))
        e2e["success_rate"] = 1.0 - e2e["error_rate"]
        for name, unit in END_TO_END + (("error_rate", "ratio"),):
            print(f"{name:16s} {e2e[name]:14.6g} {unit}")
        print(f"setup runs: {', '.join(f'{s:.3f}' for s in setups)} s")
        wall = result["end_to_end_wall_clock"]
        print(f"on the wall clock: throughput_rps {wall['throughput_rps']:.6g}, latency_p50_s "
              f"{wall['latency_p50_s']:.6g}, latency_tail_s {wall['latency_tail_s']:.6g}; speed factor "
              f"min/median/max {' / '.join(f'{f:.3f}' for f in result['speed_factor_range'])}")
        metrics = {name: {"value": _finite(e2e[name]), "unit": unit} for name, unit in END_TO_END}
    (OUT / f"result-{tag}.json").write_text(json.dumps({**result, "metrics": metrics, "setup_runs": setups}, indent=1))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

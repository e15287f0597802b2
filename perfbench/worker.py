"""One workload in one fresh process: set up, send the requests in a closed
loop with one client, check every answer, report.

Started by ``run.py``; not meant to be run by hand.  The process caps its
own address space first, so an oversize allocation raises ``MemoryError``
(counted as a failed request) instead of drawing the kernel's OOM killer.
Prints ``READY`` once qichan is imported, the inputs are built and one
warm-up request has run; ``run.py`` times set-up up to that line.  Then
``SPEED`` and the speed factor measured right after set-up.  The last line
of output is the result as JSON.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ADDRESS_SPACE_CAP = 4 << 30
# each request's latency is its median over at least this many passes
MIN_PASSES = 3
# time of Reference.measure() that defines speed factor 1 (its median on a
# 2-vCPU x86-64 VM, numpy 2.4 with OpenBLAS 0.3.31 on one thread); the
# reported times are seconds at that speed
REFERENCE_S = 0.0085
REFERENCE_EVERY_S = 0.25
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _quantile(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the order statistics
    averaged with Beta(q (n + 1), (1 - q) (n + 1)) weights.  Where latencies
    are sparse around q, a single order statistic jumps between requests of
    different sizes from run to run; the weighted average does not.  Weights
    below 1e-6 are dropped, so a failed request (+inf) far from q does not
    turn the estimate infinite."""
    import numpy as np

    n = len(sorted_values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    x = np.linspace(0.0, 1.0, 20001)[1:-1]
    pdf = np.exp((a - 1) * np.log(x) + (b - 1) * np.log1p(-x))
    cdf = np.concatenate([[0.0], np.cumsum(pdf)])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, cdf.size), cdf))
    keep = weights > 1e-6
    values = np.asarray(sorted_values)[keep]
    return float(np.dot(weights[keep], values) / weights[keep].sum()) if np.all(np.isfinite(values)) else math.inf


def _send(req) -> tuple:
    t0 = time.perf_counter()
    try:
        ans, err = req.call(), None
    except Exception as exc:  # a failed request, MemoryError included
        ans, err = None, exc
    return req, time.perf_counter() - t0, ans, err, t0


class Reference:
    """Times of a fixed numpy workload that does not touch qichan, taken
    between requests to follow the machine's speed: small LAPACK calls,
    sorting, ufuncs on tiny arrays and a Python loop (the overhead-bound
    work of the solvers) plus one tall complex SVD (the algebra layer's
    kind of work).  Each timing is the median of three chunks, so one
    preemption does not skew it."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((24, 24))
        self.tiny = rng.standard_normal((4, 4))
        self.tall = rng.standard_normal((128, 64)) + 1j * rng.standard_normal((128, 64))
        self.times: list[float] = []
        self.stamps: list[float] = []
        self.last = -math.inf

    def _chunk(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        for _ in range(10):
            np.linalg.svd(self.small)
            np.linalg.eigh(self.small @ self.small.T)
            np.sort(self.small, axis=0)
            x = self.tiny
            for _ in range(10):
                x = np.maximum(x @ self.tiny - 0.5, 0.0) / (1.0 + np.abs(x).sum())
            sum(i * i for i in range(200))
        np.linalg.svd(self.tall, full_matrices=False)
        return time.perf_counter() - t0

    def measure(self) -> None:
        start = time.perf_counter()
        self.times.append(statistics.median(self._chunk() for _ in range(3)))
        self.last = time.perf_counter()
        self.stamps.append((start + self.last) / 2)

    def factor(self, start: float, end: float) -> float:
        """Speed factor over a request that ran from ``start`` to ``end``:
        the mean reference time over REFERENCE_S within one request length
        (at least two reference intervals) on either side, so that a long
        request is judged by the speed around its whole span, not only at
        its two ends."""
        reach = max(end - start, 2 * REFERENCE_EVERY_S)
        near = [t for t, at in zip(self.times, self.stamps) if start - reach <= at <= end + reach]
        if not near:
            near = [min(zip(self.times, self.stamps), key=lambda ts: abs(ts[1] - start))[0]]
        return statistics.fmean(near) / REFERENCE_S

    def due(self) -> bool:
        return time.perf_counter() - self.last >= REFERENCE_EVERY_S


def _one_pass(requests, ref: Reference, recorder=None) -> list:
    """Send every request once, timing the reference between requests at
    most every REFERENCE_EVERY_S and once more at the end."""
    answers = []
    for index, req in enumerate(requests):
        if ref.due():
            ref.measure()
        if recorder is not None:
            recorder.request = index
        answers.append(_send(req))
    ref.measure()
    return answers


def _timed_passes(mix, ref: Reference, budget_s: float, min_passes: int) -> tuple[list[list], float]:
    """Whole passes over the mix: at least ``min_passes``, then more while
    another half pass fits the budget."""
    passes = []
    start = time.perf_counter()
    busy = 0.0
    while True:
        passes.append(_one_pass(mix.requests, ref))
        busy += sum(answer[1] for answer in passes[-1])
        if len(passes) >= min_passes and (time.perf_counter() - start) + 0.5 * busy / len(passes) >= budget_s:
            return passes, busy


def _speed_factors(ref: Reference, passes: list[list]) -> list[list[float]]:
    """Shared virtual machines change speed by a third for seconds to minutes
    at a time; each request gets the speed factor around its own span."""
    return [[ref.factor(t0, t0 + latency) for _, latency, _, _, t0 in answers] for answers in passes]


def _judge(passes, factors) -> tuple[list[list[tuple[str, float, bool]]], list[str]]:
    """Check every answer; returns (kind, latency at reference speed, ok)
    per request per pass."""
    judged, problems = [], []
    for answers, pass_factors in zip(passes, factors):
        records = []
        for (req, latency, ans, err, _), factor in zip(answers, pass_factors):
            ok, why = False, f"{type(err).__name__}: {err}"
            if err is None:
                try:
                    ok, why = bool(req.check(ans)), "oracle rejected the answer"
                except Exception:
                    why = "oracle raised\n" + traceback.format_exc(limit=3)
            if not ok and len(problems) < 20:
                problems.append(f"{req.kind}: {why}")
            records.append((req.kind, latency / factor, ok))
        judged.append(records)
    return judged, problems


def _end_to_end(judged, tail_q: float) -> dict:
    """Metrics of the median pass.

    Each request's latency is its median over the passes (a failed attempt
    counting as +inf) before the percentiles and the throughput are formed:
    the pass rebuilt from those medians answers its correct requests at
    ``throughput_rps``.
    """
    per_request = [
        statistics.median(lat if ok else math.inf for _, lat, ok in attempts) for attempts in zip(*judged)
    ]
    busy = sum(statistics.median(lat for _, lat, _ in attempts) for attempts in zip(*judged))
    latencies = sorted(per_request)
    completed = sum(math.isfinite(lat) for lat in per_request)
    attempted = sum(len(records) for records in judged)
    failed = sum(not ok for records in judged for _, _, ok in records)
    return {
        "throughput_rps": completed / busy,
        "latency_p50_s": _quantile(latencies, 0.5),
        "latency_tail_s": _quantile(latencies, tail_q),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": failed / attempted,
    }


def _per_kind(judged) -> dict:
    kinds: dict[str, list] = {}
    for kind, latency, ok in (record for records in judged for record in records):
        kinds.setdefault(kind, []).append((latency, ok))
    return {
        kind: {
            "count": len(rows),
            "failed": sum(not ok for _, ok in rows),
            "median_s": statistics.median(lat for lat, _ in rows),
            "total_s": sum(lat for lat, _ in rows),
        }
        for kind, rows in sorted(kinds.items())
    }


def _environment(seed: int, blas_threads: str) -> dict:
    import numpy as np

    from qichan import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    return {
        "numba_present": importlib.util.find_spec("numba") is not None,
        "kernels_backend": kernels.BACKEND,
        "numpy": np.__version__,
        "blas": blas_vendor,
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "address_space_cap_bytes": ADDRESS_SPACE_CAP,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git so
    that nothing outside the checkout is consulted."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="JSON-lines file for the traced run's spans")
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import qichan

    if Path(qichan.__file__).resolve().parent != ROOT / "src" / "qichan":
        print(f"qichan imported from {qichan.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.load(args.workload)
    mix = wl.build(np.random.default_rng(args.seed))
    if not mix.warmup.check(mix.warmup.call()):
        print("warm-up request failed its oracle", file=sys.stderr)
        return 3
    print("READY", flush=True)
    # the speed factor just after set-up, so that run.py can put set-up time
    # at the reference speed like every other time
    ref = Reference()
    ref.measure()
    print(f"SPEED {ref.times[0] / REFERENCE_S!r}", flush=True)
    if args.setup_only:
        return 0

    result: dict = {"environment": _environment(args.seed, os.environ.get("OPENBLAS_NUM_THREADS", "default"))}
    if args.trace:
        from spans import Recorder, summarize, tracing

        ref = Reference()
        ref.measure()
        passes, _ = _timed_passes(mix, ref, args.seconds / 2, min_passes=1)
        judged, problems = _judge(passes, _speed_factors(ref, passes))
        untraced = _end_to_end(judged, wl.TAIL_Q)
        recorder = Recorder()
        with tracing(recorder):
            traced_answers = _one_pass(mix.requests, ref, recorder)
        traced_judged, traced_problems = _judge([traced_answers], _speed_factors(ref, [traced_answers]))
        traced = _end_to_end(traced_judged, wl.TAIL_Q)
        # spans are on the wall clock, so the requests' time they cover is too
        layer_metrics, rows = summarize(recorder, sum(answer[1] for answer in traced_answers))
        layer_metrics["trace.overhead_rps"] = traced["throughput_rps"] - untraced["throughput_rps"]
        if args.spans:
            recorder.write_jsonl(Path(args.spans))
        judged += traced_judged
        problems += traced_problems
        result.update(per_layer=layer_metrics, span_table=rows, untraced=untraced, traced=traced)
    else:
        ref = Reference()
        ref.measure()
        passes, busy = _timed_passes(mix, ref, args.seconds, min_passes=MIN_PASSES)
        factors = _speed_factors(ref, passes)
        judged, problems = _judge(passes, factors)
        speed = [f for pass_factors in factors for f in pass_factors]
        wall_clock = [
            [(kind, answer[1], ok) for (kind, _, ok), answer in zip(records, answers)]
            for records, answers in zip(judged, passes)
        ]
        result.update(
            end_to_end=_end_to_end(judged, wl.TAIL_Q),
            end_to_end_wall_clock=_end_to_end(wall_clock, wl.TAIL_Q),
            busy_s=busy,
            speed_factor_range=[min(speed), statistics.median(speed), max(speed)],
        )
    for line in problems:
        print(line, file=sys.stderr)
    result.update(
        attempted=sum(len(records) for records in judged),
        failed=sum(not ok for records in judged for _, _, ok in records),
        requests_per_pass=len(mix.requests),
        tail_q=wl.TAIL_Q,
        per_kind=_per_kind(judged),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

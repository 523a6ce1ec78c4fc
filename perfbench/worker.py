"""One benchmark process: set up a workload, run its timed operations, check.

Started by run.py, never by hand.  It prints READY as soon as set-up is
done (imports, input generation, warm-up), then, unless --setup-only,
runs operations until --seconds have passed, at least the workload's
minimum number has completed, and the current round is whole.  The last
line of its output is one JSON object for run.py.

With --trace 1 every second operation runs with the layer functions
wrapped in spans and the rest run bare, so the difference of the two
medians is the tracing overhead.  The other three workloads then run a
few traced operations each, so that every per-layer metric is measured
on its home workload.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sutherland  # noqa: E402

if Path(sutherland.__file__).resolve().parent != ROOT / "src" / "sutherland":
    sys.exit(f"imported sutherland from {sutherland.__file__}, not from this checkout")

from tracing import Tracer, median_ms  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"

# traced operations per companion workload in a --trace 1 run
COMPANION_OPS = {"jack-grid": 4, "residual-scan": 6, "exact-series": 6, "fock-sectors": 6}


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def run_ops(wl, tracer, stop):
    """Timed loop.  Returns (bare latencies, traced latencies, failed, elapsed)."""
    bare, traced_lat = [], []
    failed = 0
    targets = wl.trace_targets() if tracer else ()
    start = perf_counter()
    i = 0
    while True:
        traced = tracer is not None and (stop.every_op_traced or i % 2 == 1)
        error = None
        if traced:
            tracer.op = i
            with tracer.patched(targets):
                t0 = perf_counter()
                try:
                    with tracer.span("op"):
                        out = wl.op(i)
                except Exception as exc:  # one failed operation; the run goes on
                    error = exc
                t1 = perf_counter()
                if wl.probe is not None and error is None:
                    with tracer.span("probe"):
                        wl.probe(i)
            tracer.op = -1
        else:
            t0 = perf_counter()
            try:
                out = wl.op(i)
            except Exception as exc:  # one failed operation; the run goes on
                error = exc
            t1 = perf_counter()
        if error is None:
            wl.keep(i, out)
            (traced_lat if traced else bare).append(t1 - t0)
        else:
            failed += 1
            if failed == 1:
                traceback.print_exception(error, file=sys.stderr)
        i += 1
        if stop.done(wl, i, t1 - start):
            return bare, traced_lat, failed, t1 - start


class UntilTime:
    every_op_traced = False

    def __init__(self, seconds):
        self.seconds = seconds

    def done(self, wl, i, elapsed):
        return i % wl.round_size == 0 and i >= wl.min_ops and elapsed >= self.seconds


class Count:
    every_op_traced = True

    def __init__(self, ops):
        self.ops = ops

    def done(self, wl, i, elapsed):
        return i >= self.ops


def check(wl, attempted):
    try:
        return True, wl.check(attempted)
    except Exception as exc:  # a check that cannot read an output fails the run
        traceback.print_exception(exc, file=sys.stderr)
        return False, f"{type(exc).__name__}: {exc}"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    if tracer:
        with tracer.patched(wl.trace_targets()):
            wl.setup()
    else:
        wl.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    bare, traced_lat, failed, elapsed = run_ops(wl, tracer, UntilTime(args.seconds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(bare) + len(traced_lat) + failed
    correct, summary = check(wl, attempted)
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "checks": {wl.name: summary},
    }
    if not tracer:
        result["metrics"] = {
            "throughput_per_s": (len(bare) / elapsed, "1/s"),
            "latency_p50_ms": (median_ms(bare), "ms"),
            "latency_tail_ms": (1e3 * percentile(bare, wl.tail_pct), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        result["samples"] = len(bare)
        result["tail_pct"] = wl.tail_pct
    else:
        metrics = dict(wl.layer_metrics(tracer))
        metrics["trace.overhead_ms"] = (
            median_ms(traced_lat) - median_ms(bare), "ms")
        segments = {wl.name: tracer.spans}
        for name, cls in WORKLOADS.items():
            if name == wl.name:
                continue
            other, tr = cls(args.seed), Tracer()
            with tr.patched(other.trace_targets()):
                other.setup()
            _, done, lost, _ = run_ops(other, tr, Count(COMPANION_OPS[name]))
            ok, got = check(other, len(done) + lost)
            result["attempted"] += len(done) + lost
            result["failed"] += lost
            result["correct"] = result["correct"] and ok
            result["checks"][name] = got
            metrics.update(other.layer_metrics(tr))
            segments[name] = tr.spans
        result["metrics"] = metrics
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "span_fields": ["name", "start", "end", "parent", "op"],
                       "segments": segments}, handle)
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the sutherland package: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

from the root of a checkout.  Workloads: jack-grid, residual-scan,
exact-series, fock-sectors (see perfbench/README.md); BENCHMARK.json
lists residual-scan and fock-sectors, and every traced run also runs
the other two for their per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.

The load comes from one worker process at a time (worker.py) with BLAS
pinned to one thread.  Set-up time is measured from process start to the
first timed operation; with --trace 0 it is taken on the measured
process and on SETUP_PROBES extra processes that stop after set-up, half
of them started before the measured one and half after it, and reported
as the median of all of them.  A copy of the result line goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("jack-grid", "residual-scan", "exact-series", "fock-sectors")
SETUP_PROBES = 4
TIME_LIMIT = 170.0  # seconds for the whole invocation
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for name in PINNED:
        env[name] = "1"
    env.pop("SUTHERLAND_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, setup_only, deadline):
    """Run one worker; return (seconds from spawn to READY, last output line)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - monotonic()), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or first.strip() != "READY":
        raise RunFailed(f"worker exited {code} ({'killed at the time limit' if code < 0 else 'see stderr'})")
    lines = rest.strip().splitlines()
    return ready, lines[-1] if lines else ""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sutherland" / "__init__.py").is_file():
        print(f"run.py: no package source at {ROOT / 'src' / 'sutherland'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = monotonic() + TIME_LIMIT
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [spawn(args, True, deadline)[0] for _ in range(probes // 2)]
        ready, line = spawn(args, False, deadline)
        setups.append(ready)
        setups += [spawn(args, True, deadline)[0] for _ in range(probes - probes // 2)]
        report = json.loads(line)
    except (RunFailed, json.JSONDecodeError) as exc:
        print(f"run.py: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    detail = {k: v for k, v in report.items() if k not in result}
    if not args.trace:
        detail["setup_samples_s"] = setups
    print(json.dumps(detail), file=sys.stderr)
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump({**result, "detail": detail}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

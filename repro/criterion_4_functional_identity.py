#!/usr/bin/env python3
"""Criterion 4: the two-sided eigenoperator identity for the correlation
ratio holds at every tested parameter set.

Drives the CLI as `python -m sutherland`: one `check-identity` job per (N, lam, q) with
100 collision-free pairs each; every max residual must clear 1e-7.
"""
import json
import subprocess
import sys
import time


def main():
    t0 = time.perf_counter()
    worst = 0.0
    seed = 97
    for N in (2, 3):
        for lam in (1, 2, 3):
            for q in (0.0, 0.2, 0.4):
                out = subprocess.run(
                    [
                        sys.executable, "-m", "sutherland", "check-identity",
                        "--N", str(N), "--lambda", str(lam), "--q", str(q),
                        "--trials", "100", "--tol", "1e-7", "--seed", str(seed),
                    ],
                    capture_output=True, text=True, check=True,
                )
                seed += 1
                data = json.loads(out.stdout)
                assert data["passed"] is True, data
                worst = max(worst, data["max_residual"])
                print(f"N={N} lam={lam} q={q}: max residual"
                      f" {data['max_residual']:.2e}")
    assert worst < 1e-7
    print(f"overall max {worst:.2e} < 1e-7")
    print(f"criterion 4 satisfied in {time.perf_counter() - t0:.1f}s (< 120s)")


if __name__ == "__main__":
    sys.exit(main())

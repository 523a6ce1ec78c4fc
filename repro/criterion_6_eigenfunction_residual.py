#!/usr/bin/env python3
"""Criterion 6: pointwise Hamiltonian residual of the deformed
eigenfunction at q=0.2, decreasing monotonically in the series order,
below 1e-4 at K=3, at lam=2 and at lam=3/2 (the non-integer branch of
the kernel integrand); and the bare ground factor visibly fails once
q > 0.

The K sweep runs through the library (the K=1 truncation is too coarse
for the evaluator's own tail gate, which is the point of the sweep);
the K=3 leg is repeated through the CLI for the record.
"""
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from sutherland.correlation import Psi0Evaluator, QuadratureSpec, apply_hamiltonian
from sutherland.elliptic_solver import eigenfunction_evaluator
from sutherland.spectrum import bare_energy
from sutherland.theta import ThetaContext


def sample_points(count=10):
    rng = np.random.default_rng(7)
    out = []
    while len(out) < count:
        pt = rng.uniform(0.3, 5.9, size=2)
        if abs(math.sin(0.5 * (pt[0] - pt[1]))) > 0.15:
            out.append([float(pt[0]), float(pt[1])])
    return out


def main():
    t0 = time.perf_counter()
    n, q = (1, 0), 0.2
    ctx = ThetaContext.from_q(q)
    quad = QuadratureSpec()
    points = sample_points()
    for lam in (2, Fraction(3, 2)):
        worst = []
        for K in (1, 2, 3):
            psi, pair = eigenfunction_evaluator(n, lam, q, K, 6, quad, tail_tol=10.0)
            energy = float(pair.energy.evaluate(q * q))
            res = max(
                abs(apply_hamiltonian(psi, x, lam, ctx) - energy * psi(x)) / abs(psi(x))
                for x in points
            )
            worst.append(res)
            print(f"lam={lam} K={K}: energy {energy:.6f}, max residual {res:.3e}")
        assert worst[0] > worst[1] > worst[2], worst
        assert worst[2] < 1e-4, worst

    pts = ";".join(",".join(str(c) for c in x) for x in points)
    out = subprocess.run(
        [
            sys.executable, "-m", "sutherland", "solve-elliptic", "--n", "1,0", "--lambda", "2",
            "--q", "0.2", "--K", "3", "--budget", "6", "--points", pts,
        ],
        capture_output=True, text=True, check=True,
    )
    cli_res = json.loads(out.stdout)["residuals"]["max"]
    print(f"CLI K=3 residual: {cli_res:.3e}")
    assert cli_res < 1e-4

    e0 = float(bare_energy((0, 0), 2))
    for q_probe, gate, sense in ((0.0, 1e-10, "<"), (0.3, 1e-2, ">")):
        ctxp = ThetaContext.from_q(q_probe)
        base = Psi0Evaluator(2, ctxp)
        res = max(
            abs(apply_hamiltonian(base, x, 2, ctxp) - e0 * base(x)) / abs(base(x))
            for x in ([0.9, 2.17], [1.4, 4.0], [5.1, 2.6])
        )
        print(f"ground factor at q={q_probe}: residual {res:.3e} {sense} {gate}")
        assert (res < gate) if sense == "<" else (res > gate)
    print(f"criterion 6 satisfied in {time.perf_counter() - t0:.1f}s (< 600s)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Criterion 8: finite sector suite for the operator realization.

Drives the CLI as `python -m sutherland` once per (charge, level, lam):
every invariant
check must pass (vacuum annihilation, exact commutation with the level
operator, Gram-hermiticity, generating-functional assembly matching the
direct constructions), and the commutator norm of the two conserved
charges is reported as a conjecture log, never asserted.  The weight
polynomials' vanishing order is checked through the API.
"""
import json
import subprocess
import sys
import time
from fractions import Fraction

from sutherland.fock import genfun_coeffs


def main():
    t0 = time.perf_counter()
    for charge in (0, 1, 2, 3):
        for level in (4, 6):
            for lam in (2, 3):
                out = subprocess.run(
                    [
                        sys.executable, "-m", "sutherland", "fock-verify",
                        "--charge", str(charge), "--level", str(level),
                        "--lambda", str(lam), "--conjectures",
                    ],
                    capture_output=True, text=True, check=True,
                )
                data = json.loads(out.stdout)
                assert data["passed"] is True, (charge, level, lam)
                norm = data["commutator_norms"]["h_h3"]
                print(f"c={charge} L={level} lam={lam}: all checks pass;"
                      f" [H, H3] norm {norm} (reported, not asserted)")
    for lam in (Fraction(1, 2), 1, 2, 3):
        w, _v = genfun_coeffs(lam, 6)
        for s in range(7):
            assert all(c == 0 for c in w[s][:s]), (lam, s)
    print("weights: w_s = O(a^s) through s=6 at lam in {1/2, 1, 2, 3}")
    print(f"criterion 8 satisfied in {time.perf_counter() - t0:.1f}s (< 300s)")


if __name__ == "__main__":
    main()

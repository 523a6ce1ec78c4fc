#!/usr/bin/env python3
"""Criterion 5: the eigenvalue series from the implicit (jointly solved)
route equals the explicit symmetric-monomial route, exactly, through
order K=3 for five admissible labels at each coupling, and on four
labels at lam=2 that have a degenerate partner: (1,0) at K=3, and
(1,0,0), (2,0,0), (2,1,0) at K=2.
"""
import time
from fractions import Fraction

from sutherland.elliptic_solver import eigenvalue_explicit, eigenvalue_implicit


def main():
    t0 = time.perf_counter()
    instances = {
        Fraction(2): [(2, 0), (3, 0), (3, 1), (4, 2), (5, 1)],
        Fraction(3): [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1)],
    }
    cases = [(n, lam, 3) for lam, ns in instances.items() for n in ns]
    cases += [((1, 0), Fraction(2), 3)] + [
        (n, Fraction(2), 2) for n in [(1, 0, 0), (2, 0, 0), (2, 1, 0)]
    ]
    for n, lam, K in cases:
        a = eigenvalue_implicit(n, lam, K)
        b = eigenvalue_explicit(n, lam, K)
        assert a == b, (n, lam, K)
        pretty = " + ".join(
            f"({c}) x^{k}" for k, c in enumerate(a.coeffs) if c != 0
        )
        print(f"lam={lam} n={n} K={K}: {pretty}")
    print(f"criterion 5 satisfied in {time.perf_counter() - t0:.1f}s (< 600s)")


if __name__ == "__main__":
    main()

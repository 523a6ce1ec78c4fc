#!/usr/bin/env python3
"""Criterion 2: the triangular recursion and the closed-form path sum
produce identical coefficient tables, exactly, on 50 random draws with
N <= 3 and raise budget <= 4.
"""
import random
import time
from fractions import Fraction

from sutherland.trig_solver import alpha_explicit, alpha_recursive


def main():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    lams = [Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2), 3]
    for trial in range(50):
        N = rng.randint(1, 3)
        n = tuple(sorted((rng.randint(-3, 5) for _ in range(N)), reverse=True))
        lam = rng.choice(lams)
        budget = rng.randint(0, 4)
        a = alpha_recursive(n, lam, budget)
        b = alpha_explicit(n, lam, budget)
        assert a == b, (n, lam, budget)
        print(f"trial {trial:2d}: n={n} lam={lam} budget={budget}"
              f" -> {len(a.entries)} entries, equal")
    print(f"criterion 2 satisfied in {time.perf_counter() - t0:.1f}s (< 60s)")


if __name__ == "__main__":
    main()

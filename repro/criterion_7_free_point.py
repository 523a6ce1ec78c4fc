#!/usr/bin/env python3
"""Criterion 7: at lam=1 the pair interaction vanishes, so every solver
must collapse exactly: delta coefficient tables, constant eigenvalue
series, at every order.
"""
import time

from sutherland.elliptic_solver import (
    eigenvalue_explicit,
    eigenvalue_implicit,
    solve_elliptic,
)
from sutherland.qseries import QSeries
from sutherland.spectrum import bare_energy
from sutherland.trig_solver import alpha_explicit, alpha_recursive


def main():
    t0 = time.perf_counter()
    for n in [(2, 0), (3, 1), (5, 2), (2, 1, 0), (4, 1, -2)]:
        assert alpha_recursive(n, 1, 4).entries == {n: 1}
        assert alpha_explicit(n, 1, 4).entries == {n: 1}
        e0 = bare_energy(n, 1)
        pair = solve_elliptic(n, 1, 3, 4)
        assert pair.energy == QSeries.constant(e0, 3)
        assert eigenvalue_implicit(n, 1, 3) == QSeries.constant(e0, 3)
        assert eigenvalue_explicit(n, 1, 3) == QSeries.constant(e0, 3)
        for m, series in pair.coeffs.items():
            assert list(series.coeffs) == ([1, 0, 0, 0] if m == n else [0, 0, 0, 0])
        print(f"n={n}: delta table, energy {e0} at every order")
    print(f"criterion 7 satisfied in {time.perf_counter() - t0:.1f}s (seconds)")


if __name__ == "__main__":
    main()

"""Unperturbed spectrum bookkeeping for N particles with coupling lam.

A state is labelled by a weakly decreasing integer vector n of length N.
Its pseudo-momenta are

    nt_j = n_j + lam * (2N + 1 - 2j) / 2,   j = 1..N,

and the bare energy is sum_j nt_j^2.  All hop moves conserve sum(n), so
excited labels m reachable from n live on the hyperplane sum(m) = sum(n);
their distance from n is measured by the raise degree

    raise(m) = sum_j j * (n_j - m_j) >= 0,

equivalently the sum of the prefix coordinates

    P_t(m) = sum_{j<=t} (m_j - n_j),   t = 1..N-1,

which are all >= 0 exactly on the set reachable by repeated two-site
transfers n -> n + nu*(e_j - e_k), j < k, nu >= 1 (each such transfer
raises the degree by nu*(k-j)).

Exact arithmetic: integer or Fraction lam propagates as Fraction.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import AdmissibilityError


def _scalar(lam):
    """Fraction for exact inputs, float otherwise."""
    if isinstance(lam, (int, Fraction)):
        return Fraction(lam)
    return float(lam)


def is_admissible(n) -> bool:
    n = list(n)
    if not n or any(v != int(v) for v in n):
        return False
    return all(n[j] >= n[j + 1] for j in range(len(n) - 1))


def check_admissible(n) -> tuple:
    n = tuple(int(v) for v in n)
    if len(n) == 0:
        raise AdmissibilityError("momentum vector must be nonempty")
    if not is_admissible(n):
        raise AdmissibilityError(f"momentum vector must be weakly decreasing, got {n}")
    return n


def coupling(lam):
    """Pair-potential strength 2 lam (lam - 1)."""
    lam = _scalar(lam)
    return 2 * lam * (lam - 1)


def pseudo_momenta(n, lam) -> tuple:
    lam = _scalar(lam)
    n = tuple(n)
    N = len(n)
    return tuple(n[j] + lam * (2 * N + 1 - 2 * (j + 1)) / 2 for j in range(N))


def bare_energy(n, lam):
    """sum of squared pseudo-momenta."""
    return sum(v * v for v in pseudo_momenta(n, lam))


def energy_gap(m, n, lam):
    """bare_energy(m) - bare_energy(n), exact for exact lam.

    Vanishes iff m is a resonant partner of n (or m == n).
    """
    lam = _scalar(lam)
    m, n = tuple(m), tuple(n)
    if len(m) != len(n):
        raise ValueError("length mismatch")
    N = len(n)
    out = 0 * lam
    for j in range(N):
        b2 = lam * (2 * N + 1 - 2 * (j + 1))  # twice the j-th offset
        out += (m[j] - n[j]) * (m[j] + n[j] + b2)
    return out


def apply_moves(n, mu) -> tuple:
    """m = n + sum_{j<k} mu_{jk} (e_j - e_k), mu a {(j, k): count} map, 1-based."""
    n = tuple(n)
    N = len(n)
    m = list(n)
    for (j, k), w in mu.items():
        if not 1 <= j < k <= N:
            raise ValueError(f"move indices must satisfy 1 <= j < k <= N, got ({j}, {k})")
        m[j - 1] += w
        m[k - 1] -= w
    return tuple(m)


def prefix_coords(m, n) -> tuple:
    """P_t = sum_{j<=t}(m_j - n_j), t = 1..N-1; bijective with m at fixed sum."""
    m, n = tuple(m), tuple(n)
    if len(m) != len(n):
        raise ValueError("length mismatch")
    if sum(m) != sum(n):
        raise ValueError(f"total momentum mismatch: sum{m} != sum{n}")
    run, out = 0, []
    for j in range(len(n) - 1):
        run += m[j] - n[j]
        out.append(run)
    return tuple(out)


def from_prefix(P, n) -> tuple:
    """Inverse of prefix_coords: m_t = n_t + (P_t - P_{t-1}), P_0 = P_N = 0."""
    n = tuple(n)
    P = (0,) + tuple(P) + (0,)
    if len(P) != len(n) + 1:
        raise ValueError("prefix vector must have length N - 1")
    return tuple(n[t] + (P[t + 1] - P[t]) for t in range(len(n)))

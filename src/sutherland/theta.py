"""Periodic building blocks: theta-like products, their log-derivatives,
and the pair potentials built from them.

Conventions. The trigonometric block is sin(r/2).  The deformed block is

    theta(r) = sin(r/2) * prod_{n>=1} (1 - 2 q^{2n} cos r + q^{4n}),

with nome q = exp(-beta/2), beta > 0.  theta is odd and anti-periodic:
theta(r + 2 pi) = -theta(r).  The multiplicative form

    Theta(xi) = (1 - xi) * prod_{m>=1} (1 - q^{2m} xi) (1 - q^{2m} / xi)

satisfies Theta(exp(i r)) = -2i exp(i r / 2) theta(r).

The pair potential is the lattice sum

    V(r) = sum_m 1 / (4 sin^2((r + i beta m)/2)),

which equals -(log theta)''(r) identically; both forms are implemented
and tested against each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, SingularityError

_TINY = 1e-14


@dataclass(frozen=True)
class ThetaContext:
    """Truncation context for the infinite products and lattice sums.

    m_max is the least depth with q^{2 m_max} <= TOL, so the dropped
    factors differ from 1 by less than TOL; a nome that needs more than
    MAX_DEPTH factors raises ConvergenceError.  factors holds q^{2n} for
    n = 1..m_max, derived from q and m_max and not settable; every
    truncated theta product and sum iterates over it.  At q = 0 it is
    empty and every product collapses to its first factor.
    """

    q: float
    beta: float
    m_max: int

    TOL = 1e-15
    MAX_DEPTH = 10**4

    @cached_property
    def factors(self) -> tuple:
        return tuple(self.q ** (2 * n) for n in range(1, self.m_max + 1))

    @classmethod
    def from_q(cls, q: float) -> "ThetaContext":
        if not 0.0 <= q < 1.0:
            raise ValueError(f"nome must satisfy 0 <= q < 1, got {q}")
        if q == 0.0:
            return cls(q=0.0, beta=math.inf, m_max=0)
        beta = -2.0 * math.log(q)
        m_max = max(1, math.ceil(math.log(cls.TOL) / (2.0 * math.log(q))))
        if m_max > cls.MAX_DEPTH:
            raise ConvergenceError(
                f"nome q={q} needs {m_max} theta factors to reach {cls.TOL}, "
                f"more than the cap {cls.MAX_DEPTH}"
            )
        return cls(q=q, beta=beta, m_max=m_max)


def theta_trig(r):
    """sin(r/2), the q = 0 building block."""
    return np.sin(np.asarray(r) / 2.0)


def theta_elliptic(r, ctx: ThetaContext):
    """Deformed building block sin(r/2) prod_n (1 - 2 q^{2n} cos r + q^{4n})."""
    r = np.asarray(r, dtype=float)
    out = np.sin(r / 2.0)
    c = np.cos(r)
    for q2n in ctx.factors:
        out = out * (1.0 - 2.0 * q2n * c + q2n * q2n)
    return out


def big_theta(xi, ctx: ThetaContext):
    """Multiplicative form Theta(xi) = (1 - xi) prod (1 - q^{2m} xi)(1 - q^{2m}/xi).

    xi may be complex and nonzero; vectorized over arrays.
    """
    xi = np.asarray(xi, dtype=complex)
    if np.any(np.abs(xi) < _TINY):
        raise SingularityError("Theta requires a nonzero argument")
    out = 1.0 - xi
    for q2m in ctx.factors:
        out = out * (1.0 - q2m * xi) * (1.0 - q2m / xi)
    return out


def log_theta_derivs(r, ctx: ThetaContext, order: int = 1):
    """Derivative of log theta, term-by-term through the product.

    order=1:  (1/2) cot(r/2) + sum_n 2 q^{2n} sin r / D_n
    order=2:  -(1/4) csc^2(r/2) + sum_n (2 q^{2n} cos r / D_n
                                          - (2 q^{2n} sin r)^2 / D_n^2)
    with D_n = 1 - 2 q^{2n} cos r + q^{4n}.  Poles of the leading term
    (theta zeros at r in 2 pi Z) raise SingularityError.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    r = np.asarray(r, dtype=float)
    s_half = np.sin(r / 2.0)
    if np.any(np.abs(s_half) < _TINY):
        raise SingularityError("log-derivative pole: theta vanishes at r in 2 pi Z")
    if order == 1:
        out = 0.5 * np.cos(r / 2.0) / s_half
    else:
        out = -0.25 / (s_half * s_half)
    s, c = np.sin(r), np.cos(r)
    for q2n in ctx.factors:
        d = 1.0 - 2.0 * q2n * c + q2n * q2n
        if order == 1:
            out = out + 2.0 * q2n * s / d
        else:
            out = out + 2.0 * q2n * c / d - (2.0 * q2n * s) ** 2 / (d * d)
    return out


def potential_trig(r):
    """1 / (4 sin^2(r/2)); singular on the coincidence set r in 2 pi Z."""
    r = np.asarray(r, dtype=float)
    s = np.sin(r / 2.0)
    if np.any(np.abs(s) < _TINY):
        raise SingularityError("pair potential pole at r in 2 pi Z")
    return 0.25 / (s * s)


def potential_elliptic(r, ctx: ThetaContext):
    """Lattice sum sum_{|m| <= m_max} 1 / (4 sin^2((r + i beta m)/2)).

    The m = +/-k terms are conjugate for real r, so the result is real.
    Equals -(log theta)'' up to the truncation tolerance.
    """
    r = np.asarray(r, dtype=float)
    out = np.asarray(potential_trig(r), dtype=complex)
    if ctx.q == 0.0:
        return out.real
    for m in range(1, ctx.m_max + 1):
        z = (r + 1j * ctx.beta * m) / 2.0
        s = np.sin(z)
        out = out + 0.25 / (s * s) + 0.25 / np.conj(s * s)
    return out.real

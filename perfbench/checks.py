"""Reference checks the benchmark computes itself, apart from the package.

Nothing here imports `sutherland`.  Each check takes the outputs a
workload collected (plain numbers, exact rationals parsed from the
canonical JSON, numpy arrays of sampled values) and recomputes what they
must equal from closed forms or independent numerics:

- jack-grid: the N=2 Jack (Gegenbauer) coefficients, exact rationals;
- residual-scan: H psi by central differences, with the pair potential
  -(log theta_1)'' taken from mpmath.jtheta;
- exact-series: exact equality of the two routes and the bare energy;
- fock-sectors: the closed-form level-block spectrum over partitions.

Every failed check raises CheckError; a passing check returns a short
summary dict that the run logs.
"""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np


class CheckError(AssertionError):
    """An output of the program disagrees with its reference."""


def parse_rational(value) -> Fraction:
    """Canonical JSON rationals are integers or "p/q" strings."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise CheckError(f"not an exact rational in the payload: {value!r}")
    return Fraction(value)


def bare_energy(n, lam) -> Fraction:
    """sum_j (n_j + lam (2N + 1 - 2j) / 2)^2, j = 1..N."""
    N = len(n)
    return sum(
        (Fraction(n[j - 1]) + Fraction(lam) * (2 * N + 1 - 2 * j) / 2) ** 2
        for j in range(1, N + 1)
    )


# ---------------------------------------------------------------------------
# jack-grid
# ---------------------------------------------------------------------------


def _pochhammer(lam: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= lam + i
    return out


def gegenbauer_coefficients(n, lam) -> dict:
    """N=2 Jack polynomial of label (a, b) in monomials z1^(a-k) z2^(b+k).

    c_(a-k, b+k) = (lam)_k (lam)_(m-k) / (k! (m-k)!), m = a - b.
    """
    a, b = n
    m = a - b
    lam = Fraction(lam)
    return {
        (a - k, b + k): _pochhammer(lam, k)
        * _pochhammer(lam, m - k)
        / (math.factorial(k) * math.factorial(m - k))
        for k in range(m + 1)
    }


def jack_grid_nodes(M: int, offset: float):
    """Torus grid: x1 = 2 pi (i + u) / M, x2 = 2 pi (j + u + 1/2) / M.

    The half-cell shift of x2 keeps every node off the collision
    diagonal x1 = x2.
    """
    x1 = 2.0 * np.pi * (np.arange(M) + offset) / M
    x2 = 2.0 * np.pi * (np.arange(M) + offset + 0.5) / M
    return x1, x2


def check_jack_grid(values: np.ndarray, n, lam, offset: float, tol: float = 1e-8) -> dict:
    """Fourier coefficients of psi/psi0 on one completed label grid.

    values[i, j] is psi/psi0 at (x1[i], x2[j]) of jack_grid_nodes.  The
    coefficients on the support must match the closed form to `tol`
    relative after fixing one overall constant on the label itself,
    every other frequency must stay below `tol` relative to it, and the
    closed-form polynomial must reproduce every sampled value.
    """
    M = values.shape[0]
    if values.shape != (M, M) or not np.all(np.isfinite(values)):
        raise CheckError(f"label {n}: grid values missing or not finite")
    k = np.rint(np.fft.fftfreq(M, 1.0 / M)).astype(int)
    shift = np.exp(-2j * np.pi * (k[:, None] * offset + k[None, :] * (offset + 0.5)) / M)
    F = np.fft.fft2(values) / (M * M) * shift

    def at(label):
        return F[label[0] % M, label[1] % M]

    want = gegenbauer_coefficients(n, lam)
    if any(not -M // 2 <= c < M // 2 for label in want for c in label):
        raise CheckError(f"label {n} does not fit a {M}-point grid")
    base = at(n)
    if abs(base) == 0.0:
        raise CheckError(f"label {n}: coefficient of the label itself vanishes")
    scale = base / float(want[n])
    worst_coeff = 0.0
    for label, c in want.items():
        dev = abs(at(label) / scale - float(c)) / float(c)
        worst_coeff = max(worst_coeff, dev)
    off = np.abs(F).copy()
    for label in want:
        off[label[0] % M, label[1] % M] = 0.0
    worst_leak = float(off.max()) / abs(base)

    x1, x2 = jack_grid_nodes(M, offset)
    model = np.zeros((M, M), dtype=complex)
    for (s1, s2), c in want.items():
        model += float(c) * np.exp(1j * (s1 * x1[:, None] + s2 * x2[None, :]))
    model *= scale
    # relative to each value, plus a floor far below any value that
    # carries information, so a value near a zero of the polynomial
    # does not turn rounding into a failure
    floor = 1e-4 * float(np.abs(values).max())
    worst_point = float(np.max(np.abs(values - model) / (np.abs(values) + floor)))

    if worst_coeff > tol:
        raise CheckError(f"label {n}, lam {lam}: support coefficient off by {worst_coeff:.2e}")
    if worst_leak > tol:
        raise CheckError(f"label {n}, lam {lam}: off-support frequency at {worst_leak:.2e}")
    if worst_point > tol:
        raise CheckError(f"label {n}, lam {lam}: sampled value off the closed form by {worst_point:.2e}")
    return {"coeff": worst_coeff, "leak": worst_leak, "point": worst_point}


# ---------------------------------------------------------------------------
# residual-scan
# ---------------------------------------------------------------------------


def pair_potential(r: float, q: float) -> float:
    """V(r) = -(d/dr)^2 log theta_1(r/2, q), from mpmath's jtheta.

    theta(r) = sin(r/2) prod (1 - 2 q^2n cos r + q^4n) is theta_1(r/2, q)
    up to a constant factor, so (log theta)'' = (1/4)(log theta_1)''.
    """
    z = mpmath.mpf(r) / 2
    t0 = mpmath.jtheta(1, z, q)
    t1 = mpmath.jtheta(1, z, q, 1)
    t2 = mpmath.jtheta(1, z, q, 2)
    return float(-(t2 / t0 - (t1 / t0) ** 2) / 4)


def energy_value(coeffs, q: float) -> float:
    """Exact Horner sum of the energy series at x = q^2, then rounded."""
    x = Fraction(q) * Fraction(q)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return float(acc)


def fd_residual(x, lam, q, energy, center, plus, minus, h) -> float:
    """|H psi - E psi| / |psi| with -sum_j d2/dx_j2 by central differences.

    plus[j], minus[j] are psi(x + h e_j), psi(x - h e_j); center is psi(x).
    """
    lam = Fraction(lam)
    gamma = float(2 * lam * (lam - 1))
    lap = sum((p - 2.0 * center + m) / (h * h) for p, m in zip(plus, minus))
    pot = 0.0
    for j in range(len(x)):
        for k in range(j + 1, len(x)):
            pot += pair_potential(x[j] - x[k], q)
    return abs(-lap + gamma * pot * center - energy * center) / abs(center)


def _complex(value) -> complex:
    return complex(value["re"], value["im"])


def check_elliptic_command(payload: dict, n, lam, gate: float) -> dict:
    """Energy bookkeeping and reported residuals of one solve-elliptic run."""
    if "error" in payload:
        raise CheckError(f"solve-elliptic {n} lam {lam} failed: {payload['error']}")
    coeffs = [parse_rational(c) for c in payload["energy_series"]["coefficients"]]
    if coeffs[0] != bare_energy(n, lam):
        raise CheckError(f"{n} lam {lam}: constant term {coeffs[0]} is not the bare energy")
    want = energy_value(coeffs, payload["q"])
    got = payload["energy_value"]
    if abs(got - want) > 1e-12 * abs(want):
        raise CheckError(f"{n} lam {lam}: energy_value {got!r} is not the series at q^2 ({want!r})")
    worst = max(s["residual"] for s in payload["residuals"]["samples"])
    if not worst < gate:
        raise CheckError(f"{n} lam {lam}: reported residual {worst:.2e} not below {gate}")
    return {"reported_residual": worst}


def check_fd_residual(payload: dict, stencil: dict, n, lam, h: float, gate: float) -> float:
    """Rebuild H psi at the payload's first point from the stencil run.

    `stencil` is the payload of a second command sampling psi at
    x + h e_1, x - h e_1, x + h e_2, ... in that order.
    """
    if "error" in stencil:
        raise CheckError(f"stencil run for {n} lam {lam} failed: {stencil['error']}")
    sample = payload["residuals"]["samples"][0]
    x = sample["point"]
    center = _complex(sample["psi"])
    vals = [_complex(s["psi"]) for s in stencil["residuals"]["samples"]]
    plus, minus = vals[0::2], vals[1::2]
    coeffs = [parse_rational(c) for c in payload["energy_series"]["coefficients"]]
    energy = energy_value(coeffs, payload["q"])
    res = fd_residual(x, lam, payload["q"], energy, center, plus, minus, h)
    if not res < gate:
        raise CheckError(
            f"{n} lam {lam} at {x}: finite-difference residual {res:.2e} not below {gate}"
        )
    return res


def stencil_points(x, h: float):
    """x + h e_1, x - h e_1, x + h e_2, x - h e_2, ..."""
    out = []
    for j in range(len(x)):
        for sign in (1.0, -1.0):
            p = list(x)
            p[j] += sign * h
            out.append(tuple(p))
    return tuple(out)


# ---------------------------------------------------------------------------
# exact-series
# ---------------------------------------------------------------------------


def check_exact_series(n, lam, implicit, explicit) -> None:
    """The joint solve and the loop sum give one exact series."""
    implicit, explicit = list(implicit), list(explicit)
    if not all(isinstance(c, Fraction) for c in implicit + explicit):
        raise CheckError(f"{n} lam {lam}: series coefficients are not exact rationals")
    if implicit != explicit:
        raise CheckError(f"{n} lam {lam}: joint solve {implicit} != loop sum {explicit}")
    if implicit[0] != bare_energy(n, lam):
        raise CheckError(f"{n} lam {lam}: constant term {implicit[0]} is not the bare energy")


# ---------------------------------------------------------------------------
# fock-sectors
# ---------------------------------------------------------------------------


def partitions(total: int):
    out = []

    def rec(rest, cap, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, cap), 0, -1):
            rec(rest - part, part, acc + [part])

    rec(total, max(total, 1), [])
    return out


def conjugate(mu):
    return tuple(sum(1 for p in mu if p > j) for j in range(mu[0])) if mu else ()


def block_spectrum(charge: int, lam, level: int):
    """lam^2 c^3/3 - (3 lam - 2) c/12 + 2 lam c |mu| + sum mu'_j^2 - lam sum mu_i^2."""
    lam = Fraction(lam)
    c = charge
    base = lam * lam * c**3 / 3 - (3 * lam - 2) * c / 12 + 2 * lam * c * level
    return sorted(
        base + sum(p * p for p in conjugate(mu)) - lam * sum(p * p for p in mu)
        for mu in partitions(level)
    )


def check_fock_payload(payload: dict, charge: int, lam, level: int, tol: float = 1e-9) -> dict:
    """Every payload check passes and every level block has the closed-form spectrum."""
    if "error" in payload:
        raise CheckError(f"fock-verify c={charge} lam={lam} failed: {payload['error']}")
    failed = [c["name"] for c in payload["checks"] if c["passed"] is not True]
    if failed or payload["passed"] is not True:
        raise CheckError(f"fock-verify c={charge} lam={lam}: checks failed: {failed}")
    levels = sorted(b["level"] for b in payload["blocks"])
    if levels != list(range(level + 1)):
        raise CheckError(f"fock-verify c={charge} lam={lam}: blocks for levels {levels}")
    worst = 0.0
    for block in payload["blocks"]:
        want = block_spectrum(charge, lam, block["level"])
        got = sorted(block["eigenvalues"])
        if len(got) != len(want):
            raise CheckError(f"c={charge} lam={lam} level {block['level']}: {len(got)} eigenvalues, want {len(want)}")
        for g, w in zip(got, want):
            dev = abs(g - float(w))
            worst = max(worst, dev)
            if dev > tol * max(1.0, abs(float(w))):
                raise CheckError(
                    f"c={charge} lam={lam} level {block['level']}: eigenvalue {g!r} != {w}"
                )
    return {"worst_eigenvalue_dev": worst, "h_h3_norm": payload["commutator_norms"]["h_h3"]}

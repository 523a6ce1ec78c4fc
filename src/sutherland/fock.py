"""Finite charge/level sectors of the bosonic collective-field algebra.

The oscillator modes obey [rho(m), rho(n)] = m delta(m, -n); negative
modes create, rho(n) Omega = 0 for n >= 0, and Q counts charge.  A
sector is spanned by partition-labelled monomials R^c rho(-mu_1) ...
rho(-mu_k) Omega with total level <= L; that basis is orthogonal with
norm^2 = prod_k k^{m_k} m_k! over part multiplicities.

All operators built here conserve both charge and level, so their
truncated matrices are exact, not approximations: annihilators act
first, creators restore exactly the level that was removed.

Scalars live in the quadratic extension Q(sqrt(lambda)) since the cubic
collective Hamiltonian carries odd powers of sqrt(lambda); Quad keeps
them exact.  The shift generating functional is expanded in series over
the Gaussian rationals Q[i], held as (re, im) pairs of QSeries: every
mode carries exactly one factor sqrt(lambda), so a term with k modes is
lambda^(k//2) sqrt(lambda)^(k%2) times a Q[i] series, and each matrix
entry is accumulated in two halves by the parity of k, becoming a Quad
only when the coefficient is read off.

The generating-functional route rebuilds H_n (n <= 3) from
vertex-operator data alone and must reproduce the directly constructed
matrices; the vertex product is normal ordered (creation exponential on
the left), which is the only reading of the two half-field exponentials
that yields finite coefficients.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .qseries import QSeries

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _exact_sqrt(x: Fraction):
    """sqrt(x) as a Fraction when x is a perfect square, else None."""
    if x < 0:
        return None
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


class Quad:
    """Exact scalar p + r sqrt(lam) with Fraction components.

    When lam is a perfect square the radical part folds into the
    rational part, so equality is componentwise in all cases.
    """

    __slots__ = ("p", "r", "lam")

    def __init__(self, p, r, lam):
        lam = Fraction(lam)
        p, r = Fraction(p), Fraction(r)
        if r != 0:
            root = _exact_sqrt(lam)
            if root is not None:
                p, r = p + r * root, _ZERO
        self.p, self.r, self.lam = p, r, lam

    def _coerce(self, other):
        if isinstance(other, Quad):
            if other.lam != self.lam:
                raise ValueError("mixing scalars over different couplings")
            return other
        return Quad(other, 0, self.lam)

    def __add__(self, other):
        o = self._coerce(other)
        return Quad(self.p + o.p, self.r + o.r, self.lam)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Quad(self.p - o.p, self.r - o.r, self.lam)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return Quad(
            self.p * o.p + self.r * o.r * self.lam,
            self.p * o.r + self.r * o.p,
            self.lam,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return Quad(-self.p, -self.r, self.lam)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.p == other and self.r == 0
        return (
            isinstance(other, Quad)
            and self.lam == other.lam
            and self.p == other.p
            and self.r == other.r
        )

    def __hash__(self):
        return hash((self.p, self.r, self.lam))

    def __float__(self):
        return float(self.p) + float(self.r) * math.sqrt(float(self.lam))

    def __repr__(self):
        if self.r == 0:
            return f"Quad({self.p})"
        return f"Quad({self.p} + {self.r} sqrt({self.lam}))"


# ---------------------------------------------------------------------------
# Sectors.
# ---------------------------------------------------------------------------

MAX_LEVEL = 12


def _partitions(total):
    """Partitions of `total` as non-increasing tuples."""
    out = []

    def rec(rest, cap, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, cap), 0, -1):
            rec(rest - part, part, acc + [part])

    rec(total, total if total else 1, [])
    return out


def _norm_sq(mu) -> Fraction:
    out = _ONE
    for part in set(mu):
        k = mu.count(part)
        out *= Fraction(part) ** k * factorial(k)
    return out


@dataclass(frozen=True)
class FockSector:
    """Charge-c states R^c rho(-mu_1)...rho(-mu_k) Omega with sum(mu) <= L."""

    charge: int
    max_level: int
    basis: tuple
    inner_products: tuple  # diagonal Gram entries, one per basis state

    @property
    def dim(self):
        return len(self.basis)

    def index(self, mu):
        return self._index[tuple(mu)]

    def level(self, i):
        return sum(self.basis[i])

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {mu: i for i, mu in enumerate(self.basis)}
        )


def build_sector(c: int, L: int) -> FockSector:
    """Enumerate the level-graded partition basis and its Gram form."""
    if L > MAX_LEVEL:
        raise ValueError(f"level cutoff {L} exceeds the desk-scale cap {MAX_LEVEL}")
    if L < 0:
        raise ValueError("level cutoff must be non-negative")
    basis = []
    for level in range(L + 1):
        basis.extend(sorted(_partitions(level)))
    basis = tuple(basis)
    return FockSector(c, L, basis, tuple(_norm_sq(mu) for mu in basis))


@dataclass(frozen=True)
class SectorOperator:
    """Dense matrix in the partition basis; matrix[i][j] = <i-component of Op e_j>."""

    sector: FockSector
    matrix: tuple

    def entry(self, mu_out, mu_in):
        return self.matrix[self.sector.index(mu_out)][self.sector.index(mu_in)]

    def is_level_preserving(self) -> bool:
        s = self.sector
        return all(
            self.matrix[i][j] == 0
            for i in range(s.dim)
            for j in range(s.dim)
            if s.level(i) != s.level(j)
        )

    def is_gram_symmetric(self) -> bool:
        """Self-adjointness w.r.t. the Gram form: G M == (G M)^T."""
        s, m = self.sector, self.matrix
        g = s.inner_products
        return all(
            g[i] * m[i][j] == g[j] * m[j][i]
            for i in range(s.dim)
            for j in range(i + 1, s.dim)
        )


def _zero_matrix(dim, lam):
    z = Quad(0, 0, lam)
    return [[z for _ in range(dim)] for _ in range(dim)]


def _freeze(rows):
    return tuple(tuple(row) for row in rows)


def compose(A: SectorOperator, B: SectorOperator) -> SectorOperator:
    if A.sector is not B.sector and A.sector != B.sector:
        raise ValueError("operators live on different sectors")
    dim = A.sector.dim
    lam = A.matrix[0][0].lam if dim else _ONE
    out = _zero_matrix(dim, lam)
    for i in range(dim):
        for k in range(dim):
            a = A.matrix[i][k]
            if a == 0:
                continue
            rowb = B.matrix[k]
            for j in range(dim):
                if rowb[j] == 0:
                    continue
                out[i][j] = out[i][j] + a * rowb[j]
    return SectorOperator(A.sector, _freeze(out))


def commutator(A: SectorOperator, B: SectorOperator) -> SectorOperator:
    AB, BA = compose(A, B), compose(B, A)
    rows = [
        [AB.matrix[i][j] - BA.matrix[i][j] for j in range(A.sector.dim)]
        for i in range(A.sector.dim)
    ]
    return SectorOperator(A.sector, _freeze(rows))


def frobenius_norm(A: SectorOperator) -> float:
    return math.sqrt(
        sum(float(x) ** 2 for row in A.matrix for x in row)
    )


def is_zero_operator(A: SectorOperator) -> bool:
    return all(x == 0 for row in A.matrix for x in row)


# ---------------------------------------------------------------------------
# Mode actions on partition monomials.
# ---------------------------------------------------------------------------


def _annihilate(mu, modes):
    """Apply prod rho(m) for m in modes; None if a mode finds no part."""
    parts = list(mu)
    coef = _ONE
    for m in modes:
        cnt = parts.count(m)
        if cnt == 0:
            return None
        coef *= m * cnt
        parts.remove(m)
    parts.sort(reverse=True)
    return coef, tuple(parts)


def _create(mu, modes):
    return tuple(sorted(list(mu) + list(modes), reverse=True))


# ---------------------------------------------------------------------------
# Direct operator builders.
# ---------------------------------------------------------------------------


def op_H0(sector: FockSector, lam) -> SectorOperator:
    """Diagonal lam c^2 / 2 + level."""
    lam = Fraction(lam)
    rows = _zero_matrix(sector.dim, lam)
    for i, mu in enumerate(sector.basis):
        rows[i][i] = Quad(lam * sector.charge**2 / 2 + sum(mu), 0, lam)
    return SectorOperator(sector, _freeze(rows))


def op_C(sector: FockSector, lam=1) -> SectorOperator:
    """Diagonal sum of squared parts, from sum_n n rho(-n) rho(n)."""
    lam = Fraction(lam)
    rows = _zero_matrix(sector.dim, lam)
    for i, mu in enumerate(sector.basis):
        rows[i][i] = Quad(sum(p * p for p in mu), 0, lam)
    return SectorOperator(sector, _freeze(rows))


def _apply_mode_term(rows, sector, col, mu, scalar, creators, annihilators):
    r = _annihilate(mu, annihilators)
    if r is None:
        return
    coef, tau = r
    sigma = _create(tau, creators)
    if sum(sigma) > sector.max_level:
        return
    i = sector.index(sigma)
    rows[i][col] = rows[i][col] + scalar * coef


def _add_zero_frequency(rows, sector, lam, prefactor, arity):
    """Add prefactor times the zero-frequency part of :phi^arity:, where
    phi's zero mode is sqrt(lam) Q.

    The ordered index tuples in [-L, L]^arity that sum to zero are grouped
    once by zero count and by their annihilator and creator multisets;
    each group is applied with its multiplicity folded into its scalar.
    """
    L = sector.max_level
    groups = {}
    for head in itertools.product(range(-L, L + 1), repeat=arity - 1):
        last = -sum(head)
        if not -L <= last <= L:
            continue
        idx = head + (last,)
        key = (
            idx.count(0),
            tuple(sorted(m for m in idx if m > 0)),
            tuple(sorted((-m for m in idx if m < 0), reverse=True)),
        )
        groups[key] = groups.get(key, 0) + 1
    zero_mode = Quad(0, 1, lam) * sector.charge
    scalars = [Quad(prefactor, 0, lam)]
    for _ in range(arity):
        scalars.append(scalars[-1] * zero_mode)
    terms = [
        (scalars[zeros] * mult, sum(annihilators), annihilators, creators)
        for (zeros, annihilators, creators), mult in groups.items()
    ]
    for col, mu in enumerate(sector.basis):
        lv = sum(mu)
        for scalar, level, annihilators, creators in terms:
            if level <= lv:
                _apply_mode_term(rows, sector, col, mu, scalar, creators, annihilators)


def op_W3(sector: FockSector, lam) -> SectorOperator:
    """Cubic collective operator: one third of the zero-frequency part of
    the normal-ordered cube of the boson field, zero mode sqrt(lam) Q."""
    lam = Fraction(lam)
    rows = _zero_matrix(sector.dim, lam)
    _add_zero_frequency(rows, sector, lam, Fraction(1, 3), 3)
    return SectorOperator(sector, _freeze(rows))


def op_H(sector: FockSector, lam) -> SectorOperator:
    """sqrt(lam) W3 - ((3 lam - 2)/12) Q + (1 - lam) C.

    The level-0 eigenvalue is lam^2 c^3 / 3 - (3 lam - 2) c / 12, which
    exceeds the constant-label energy by c (lam - 1)(lam - 2) / 12; the
    tests pin that residual.
    """
    lam = Fraction(lam)
    root = Quad(0, 1, lam)
    w3 = op_W3(sector, lam)
    cop = op_C(sector, lam)
    rows = [
        [root * w3.matrix[i][j] + (1 - lam) * cop.matrix[i][j] for j in range(sector.dim)]
        for i in range(sector.dim)
    ]
    shift = -Fraction(3 * lam - 2, 12) * sector.charge
    for i in range(sector.dim):
        rows[i][i] = rows[i][i] + shift
    return SectorOperator(sector, _freeze(rows))


def op_H3(sector: FockSector, lam) -> SectorOperator:
    """Level-preserving matrix of the third-order collective operator.

    Local line: (lam/4) :rho^4: + (1/4) :(rho')^2: - ((3 lam - 2)/8)
    :rho^2:, all at zero total frequency.  Non-local corrections:
    -3 lam (lam - 1) Q C plus the mixed cubic terms
    -(3/2) sqrt(lam) (lam - 1) sum_k k [rho(-k) sum_{a+b=k} rho(a) rho(b)
    + sum_{a+b=k} rho(-a) rho(-b) rho(k)] and
    ((2 lam - 1)(lam - 1)/2) sum_k k^2 rho(-k) rho(k).
    """
    lam = Fraction(lam)
    c = sector.charge
    rows = _zero_matrix(sector.dim, lam)
    # (lam/4) :rho^4: zero-frequency part
    _add_zero_frequency(rows, sector, lam, Fraction(lam, 4), 4)
    # mixed cubic corrections
    pref = Quad(0, Fraction(-3, 2) * (lam - 1), lam)
    for col, mu in enumerate(sector.basis):
        lv = sum(mu)
        for k in range(2, lv + 1):
            for a in range(1, k):
                b = k - a
                _apply_mode_term(
                    rows, sector, col, mu, pref * k, sorted((k,), reverse=True), [a, b]
                )
                _apply_mode_term(
                    rows, sector, col, mu, pref * k, sorted((a, b), reverse=True), [k]
                )
    # diagonal pieces
    for i, mu in enumerate(sector.basis):
        lv = sum(mu)
        cubes = sum(p**3 for p in mu)
        sq = sum(p * p for p in mu)
        d = (
            Fraction(1, 2) * cubes
            - Fraction(3 * lam - 2, 8) * lam * c * c
            - Fraction(3 * lam - 2, 4) * lv
            - 3 * lam * (lam - 1) * c * sq
            + Fraction((2 * lam - 1) * (lam - 1), 2) * cubes
        )
        rows[i][i] = rows[i][i] + d
    return SectorOperator(sector, _freeze(rows))


# ---------------------------------------------------------------------------
# Exact series in the shift angle a.  Real series are QSeries; series over
# the Gaussian rationals are (re, im) pairs of QSeries.
# ---------------------------------------------------------------------------


def _gmul(x, y):
    (xr, xi), (yr, yi) = x, y
    return xr * yr - xi * yi, xr * yi + xi * yr


def _gadd(x, y):
    return x[0] + y[0], x[1] + y[1]


def _gone(D):
    return QSeries.constant(_ONE, D), QSeries.zero(D)


def _half_angle_series(D, odd):
    """sin(a/2) when `odd`, else cos(a/2), through a^D."""
    out = [_ZERO] * (D + 1)
    for t in range(1 if odd else 0, D + 1, 2):
        out[t] = Fraction((-1) ** (t // 2), factorial(t) * 2**t)
    return QSeries(out, D)


def _series_tan_half(D):
    return _half_angle_series(D, odd=True) * _half_angle_series(D, odd=False).reciprocal()


def _series_cos_half_pow(lam, D):
    """cos(a/2)^lam = exp(lam log cos(a/2)), exact in Fraction."""
    # log(1 + u) with u = cos - 1 = O(a^2)
    u = _half_angle_series(D, odd=False) - 1
    logc = QSeries.zero(D)
    upow = QSeries.constant(_ONE, D)
    for t in range(1, D // 2 + 1):
        upow = upow * u
        logc = logc + upow * Fraction((-1) ** (t + 1), t)
    logc = logc * Fraction(lam)
    out = term = QSeries.constant(_ONE, D)
    for t in range(1, D + 1):
        term = term * logc * Fraction(1, t)
        out = out + term
    return out


def _gen_binom(lam, j) -> Fraction:
    lam = Fraction(lam)
    out = _ONE
    for i in range(j):
        out *= lam - i
    return out / factorial(j)


def genfun_coeffs(lam, order: int):
    """Shift-functional weight polynomials (w, v) through a-degree `order`.

    v_k(a) expands the k-th derivative kernel: coefficients of
    (2 arctan c)^k / (1 + c^2) paired with generalized binomials of lam
    against powers of -tan(a/2); w solves w_0 = 1,
    w_s = -sum_{k<s} v_{s-k} w_k.  Both families are exact Fraction
    series, and w_s = O(a^s) because v_k = O(a^k).
    """
    if order > 8:
        raise ValueError("a-degree capped at 8")
    lam = Fraction(lam)
    D = order
    minus_tan = -_series_tan_half(D)
    minus_tan_pow = [QSeries.constant(_ONE, D)]
    for _ in range(D):
        minus_tan_pow.append(minus_tan_pow[-1] * minus_tan)
    # N_k(c) = (2 arctan c)^k / (1 + c^2), coefficients through c^D
    nk = QSeries(
        [_ZERO if t % 2 else Fraction((-1) ** (t // 2)) for t in range(D + 1)], D
    )
    atan2 = QSeries(
        [Fraction(2 * (-1) ** (t // 2), t) if t % 2 else _ZERO for t in range(D + 1)], D
    )
    v = []
    for k in range(0, D + 1):
        if k > 0:
            nk = nk * atan2
        vk = QSeries.zero(D)
        for ell in range(k, D + 1):
            coef = _gen_binom(lam, ell + 1) * nk.coeffs[ell]
            if coef != 0:
                vk = vk + minus_tan_pow[ell] * coef
        v.append(vk * Fraction(1, lam * factorial(k)))
    w = [QSeries.constant(_ONE, D)]
    for s in range(1, D + 1):
        acc = QSeries.zero(D)
        for k in range(s):
            acc = acc + v[s - k] * w[k]
        w.append(-acc)
    return [list(x.coeffs) for x in w], [list(x.coeffs) for x in v]


# ---------------------------------------------------------------------------
# Generating-functional route to the H_n matrices.  Multiset tables map a
# sorted tuple of modes to a Gaussian series; the factor sqrt(lam) each
# mode carries is left out, so an entry with k modes stands for
# sqrt(lam)^k times its series.  A k-mode entry is O(a^k), so tables keep
# no multiset longer than the truncation order.
# ---------------------------------------------------------------------------


def _mode_series(m, sign, D):
    """-i h_{sign m}(a) with h_n(a) = (e^{i n a} - 1)/(i n); the mode's
    exponent coefficient is sqrt(lam) times this."""
    re, im = [_ZERO] * (D + 1), [_ZERO] * (D + 1)
    # h: coefficient of a^t is (i sign m)^{t-1} / t!
    re_part, im_part = _ONE, _ZERO  # (i sign m)^{t-1}, t = 1
    for t in range(1, D + 1):
        f = Fraction(1, factorial(t))
        # multiply by -i: (re + i im) -> im - i re
        re[t], im[t] = im_part * f, -re_part * f
        re_part, im_part = -im_part * sign * m, re_part * sign * m
    return QSeries(re, D), QSeries(im, D)


def _table_mul(d1, d2, D):
    """Product of two multiset tables, dropping multisets longer than D."""
    out = {}
    for k1, p1 in d1.items():
        for k2, p2 in d2.items():
            nk = tuple(sorted(k1 + k2))
            if len(nk) > D:
                continue
            contrib = _gmul(p1, p2)
            out[nk] = _gadd(out[nk], contrib) if nk in out else contrib
    return out


def _exp_mode_dict(sector, sign, D):
    """Multiset expansion of exp(sum_m coeff_m(a) rho(sign m)), modes 1..L."""
    table = {(): _gone(D)}
    for m in range(1, sector.max_level + 1):
        base = _mode_series(m, sign, D)
        powers = {}
        powt = _gone(D)
        for t in range(1, D + 1):
            powt = _gmul(powt, base)
            f = Fraction(1, factorial(t))
            powers[(m,) * t] = (powt[0] * f, powt[1] * f)
        table.update(_table_mul(table, powers, D))
    return table


def _deriv_factor(sector, s, D):
    """Multiset expansion of the s-th derivative prefactor of the
    annihilation exponential: 1, B', or B'^2 + B'' built from
    B^{(r)} = sum_m (i m)^r coeff_m(a) rho(m)."""
    if s == 0:
        return {(): _gone(D)}

    # B^{(r)} carries an extra (i m)^r per mode relative to the exponent
    def b_r(r):
        d = {}
        for m in range(1, sector.max_level + 1):
            re_f, im_f = _ONE, _ZERO
            for _ in range(r):
                re_f, im_f = -im_f * m, re_f * m
            factor = QSeries.constant(re_f, D), QSeries.constant(im_f, D)
            d[(m,)] = _gmul(_mode_series(m, +1, D), factor)
        return d

    if s == 1:
        return b_r(1)
    if s == 2:
        out = _table_mul(b_r(1), b_r(1), D)
        out.update(b_r(2))  # one-mode keys, disjoint from the two-mode ones
        return out
    raise ValueError("derivative order above 2 is never needed for n <= 3")


def genfun_operator(n: int, sector: FockSector, lam) -> SectorOperator:
    """H_n (n <= 3) extracted from the shift generating functional.

    Assembles sum_s f_s(a) [integral of V_- d^s V_+ minus the s = 0
    identity] on the sector, with f_s = i w_s(a) / (2 cos(a/2)^lam
    tan(a/2) lam), and reads off n! i^n times the a^n coefficient.  The
    x-integral forces created and annihilated level to match, so the
    truncated matrices are exact; the result must be real, which is
    asserted.
    """
    if not 0 <= n <= 3:
        raise ValueError("only the first four operators are desk-verifiable")
    lam = Fraction(lam)
    D = n + 1  # working in a * W(a), regular at the origin
    c = sector.charge
    w, _v = genfun_coeffs(lam, D)
    # u(a)/a = 2 lam cos(a/2)^lam tan(a/2) / a, constant term 1
    u = _series_cos_half_pow(lam, D + 1) * _series_tan_half(D + 1) * (2 * lam)
    # u = lam a (1 + ...); the trailing 1/lam is folded into g_s below
    u_shift = QSeries(u.coeffs[1:], D) * Fraction(1, lam)
    assert u_shift.coeffs[0] == 1
    uinv = u_shift.reciprocal()

    # zero-mode scalar exp(-i lam c a) from both vertex halves
    e0_re, e0_im = [_ZERO] * (D + 1), [_ZERO] * (D + 1)
    re_f, im_f = _ONE, _ZERO
    for t in range(0, D + 1):
        f = Fraction(1, factorial(t))
        e0_re[t], e0_im[t] = re_f * f, im_f * f
        re_f, im_f = im_f * lam * c, -re_f * lam * c
    e0 = QSeries(e0_re, D), QSeries(e0_im, D)

    # g_s = a w_s / u as a regular series; the s-th term carries i g_s
    gs = [QSeries(w[s], D) * uinv * Fraction(1, lam) for s in range(max(1, n))]
    # The annihilation side summed over s, each weighted by e0 i g_s: the
    # creation side and the annihilation coefficient are the same for every s.
    ann_exp = _exp_mode_dict(sector, +1, D)
    ann = {}
    for s, g in enumerate(gs):
        weight = _gmul(e0, (QSeries.zero(D), g))
        for modes, p in _table_mul(_deriv_factor(sector, s, D), ann_exp, D).items():
            contrib = _gmul(p, weight)
            ann[modes] = _gadd(ann[modes], contrib) if modes in ann else contrib
    ann = [(m, sum(m), len(m), p[0].coeffs, p[1].coeffs) for m, p in ann.items()]
    cre_by_sum = {}
    for key, (pr, pi) in _exp_mode_dict(sector, -1, D).items():
        cre_by_sum.setdefault(sum(key), []).append((key, len(key), pr.coeffs, pi.coeffs))
    lam_pow = [lam**j for j in range(D // 2 + 1)]

    # acc[i][j] = [even re, even im, odd re, odd im]: the a^D coefficient
    # of entry (i, j) is even + sqrt(lam) odd, by parity of the mode count
    dim = sector.dim
    acc = [[[_ZERO] * 4 for _ in range(dim)] for _ in range(dim)]
    for col, mu in enumerate(sector.basis):
        lv = sum(mu)
        for modes, level, ka, ar, ai in ann:
            if level > lv:
                continue
            r = _annihilate(mu, modes)
            if r is None:
                continue
            coefa, tau = r
            for key, kc, cr, ci in cre_by_sum.get(level, ()):
                k = ka + kc
                if k > D:
                    continue
                # a^D coefficient of the product; the factors are O(a^ka), O(a^kc)
                re = im = _ZERO
                for t in range(ka, D - kc + 1):
                    re += ar[t] * cr[D - t] - ai[t] * ci[D - t]
                    im += ar[t] * ci[D - t] + ai[t] * cr[D - t]
                scale = coefa * lam_pow[k // 2]
                entry = acc[sector.index(_create(tau, key))][col]
                h = 2 * (k % 2)
                entry[h] += re * scale
                entry[h + 1] += im * scale
    # the s = 0 identity subtracted from the bare vertex product, times i g_0
    for i in range(dim):
        acc[i][i][1] -= gs[0].coeffs[D]

    # H_n = n! i^n [a^{n+1}] (a W(a))
    re_f, im_f = Fraction(factorial(n)), _ZERO
    for _ in range(n):
        re_f, im_f = -im_f, re_f
    rows = _zero_matrix(dim, lam)
    for i in range(dim):
        for j in range(dim):
            er, ei, odr, odi = acc[i][j]
            re = Quad(er * re_f - ei * im_f, odr * re_f - odi * im_f, lam)
            im = Quad(er * im_f + ei * re_f, odr * im_f + odi * re_f, lam)
            if not (im.p == 0 and im.r == 0):
                raise AssertionError(
                    f"generating functional produced a complex entry "
                    f"{re!r} + i {im!r} at ({i},{j}) for n={n}"
                )
            rows[i][j] = re
    return SectorOperator(sector, _freeze(rows))

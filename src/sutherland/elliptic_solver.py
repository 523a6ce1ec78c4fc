"""Series solution of the elliptic model in the nome-squared variable.

Everything here treats the elliptic deformation as a formal power series
in x = q^2.  The eigenfunction expansion coefficients alpha(m) and the
eigenvalue series E(x) are coupled through

    [E0(m) - E(x)] alpha(m) = gamma sum_{j<k} sum_{nu != 0} S_nu alpha(m - nu E_jk)

with hop weight series S_nu from qseries.S_coeff and alpha(n) = 1.  Order
by order in x this is triangular: within one order rows are processed by
ascending raise degree, the m = n row yields the next eigenvalue
coefficient, every other row divides by the gap E0(m) - E0(n).

Zero gaps at rows m != n (resonances) are not resolved.  While the
resonant row stays consistent (a 0 = 0 constraint) the undetermined
coefficient is carried as a deferred symbol, to be pinned by a later
order.  A zero gap means the pseudo-momenta of m and n agree as
multisets, and when that degeneracy is never lifted within the computed
orders the symbol survives every constraint: the admixture of the
degenerate partner is then genuine gauge freedom and the reported table
fixes it to zero.  An inconsistent resonant row, a symbol that leaks
into the eigenvalue, or a resonant denominator on the loop-sum routes
raises ResonanceError instead of silently producing garbage.

The loop-sum route re-derives the eigenvalue independently of the joint
solve: G_k(n) sums closed hop loops weighted by complete homogeneous
polynomials in the inverse gaps at the intermediate points, and the
correction Delta = E - E0(n) solves Delta = -sum_k G_k Delta^k, by
explicit multinomial resummation (eigenvalue_explicit).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import ConvergenceError, ResonanceError
from .qseries import QSeries, S_coeff
from .spectrum import bare_energy, check_admissible, coupling, energy_gap, from_prefix

# scratch orders beyond the reported truncation; one order is needed to
# pin a symbol born at the last reported order, the second is margin
_EXTRA = 2

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _rat(lam):
    """Exact coupling exponent; the series solve has no float mode."""
    if isinstance(lam, (int, Fraction)):
        return Fraction(lam)
    if isinstance(lam, float) and lam == int(lam):
        return Fraction(int(lam))
    raise TypeError(f"exact rational coupling required, got {lam!r}")


# ---------------------------------------------------------------------------
# Deferred resonance symbols: values are Fractions or affine combinations
# const + sum_i lin[i] * s_i over symbols s_i introduced at resonant rows.
# ---------------------------------------------------------------------------


class _Aff:
    __slots__ = ("const", "lin")

    def __init__(self, const, lin):
        self.const = const
        self.lin = lin  # sym id -> nonzero Fraction

    def __repr__(self):
        return f"_Aff({self.const}, {self.lin})"


def _norm(const, lin):
    lin = {s: c for s, c in lin.items() if c != 0}
    return _Aff(const, lin) if lin else const


def _add(a, b):
    if isinstance(a, _Aff) or isinstance(b, _Aff):
        ca = a.const if isinstance(a, _Aff) else a
        cb = b.const if isinstance(b, _Aff) else b
        lin = dict(a.lin) if isinstance(a, _Aff) else {}
        if isinstance(b, _Aff):
            for s, c in b.lin.items():
                lin[s] = lin.get(s, _ZERO) + c
        return _norm(ca + cb, lin)
    return a + b


def _mul(a, b):
    if isinstance(a, _Aff) and isinstance(b, _Aff):
        raise ResonanceError(
            "product of two resonance-deferred quantities; the series is "
            "too entangled to carry symbolically"
        )
    if isinstance(a, _Aff):
        a, b = b, a
    if isinstance(b, _Aff):
        if a == 0:
            return _ZERO
        return _norm(a * b.const, {s: a * c for s, c in b.lin.items()})
    return a * b


def _subst(v, sid, repl):
    """Replace symbol sid by repl (Fraction or _Aff) inside v."""
    if not isinstance(v, _Aff) or sid not in v.lin:
        return v
    coef = v.lin[sid]
    rest = _norm(v.const, {s: c for s, c in v.lin.items() if s != sid})
    return _add(rest, _mul(coef, repl))


def _is_zero(v):
    return (not isinstance(v, _Aff)) and v == 0


# ---------------------------------------------------------------------------
# Joint order-by-order solve for the eigenvalue and the coefficients.
# ---------------------------------------------------------------------------


@dataclass
class EllipticEigenpair:
    """Eigenvalue series and coefficient table of one elliptic eigenstate."""

    n: tuple
    lam: Fraction
    energy: QSeries
    coeffs: dict
    K: int
    budget: int


class _JointSolver:
    """Row-by-row elimination of the coupled eigenvalue/coefficient system.

    Working set: prefix vectors P with P_t >= -Kw and raise <= budget +
    (N-1)*Kw, Kw = K + _EXTRA.  Labels below the box only enter at orders
    beyond Kw; labels above the raise cap influence the reported orders
    only beyond order K.  Both cutoffs are therefore exact for the
    reported data, not approximations.
    """

    def __init__(self, n, lam, K, budget):
        self.n = check_admissible(n)
        self.lam = _rat(lam)
        if self.lam <= 0:
            raise ValueError(f"coupling exponent must be positive, got {lam}")
        if K < 0 or budget < 0:
            raise ValueError("order and budget must be non-negative")
        self.K = K
        self.budget = budget
        self.Kw = K + _EXTRA
        self.gamma = coupling(self.lam)
        self.N = len(self.n)
        self.pairs = [
            (j, k) for j in range(1, self.N + 1) for k in range(j + 1, self.N + 1)
        ]
        self.rcap = budget + (self.N - 1) * self.Kw
        self._stab = {nu: S_coeff(nu, self.Kw).coeffs for nu in self._nu_range()}
        self._next_sym = 0
        self._sym_home = {}

    def _nu_range(self):
        # negative hops cost x^|nu| so |nu| <= Kw; positive hops are
        # bounded by the largest single prefix coordinate plus the box
        hi = self.rcap + (self.N - 1) * self.Kw
        return [nu for nu in range(-self.Kw, hi + 1) if nu != 0]

    def _build_rows(self):
        """All prefix vectors in the working box, keyed for the sweep order."""
        if self.N == 1:
            return [()]
        lo, hi = -self.Kw, self.rcap + (self.N - 2) * self.Kw
        rows = []

        def rec(prefix):
            if len(prefix) == self.N - 1:
                if sum(prefix) <= self.rcap:
                    rows.append(tuple(prefix))
                return
            slack = (self.N - 2 - len(prefix)) * self.Kw
            for v in range(lo, hi + 1):
                if sum(prefix) + v <= self.rcap + slack:
                    rec(prefix + [v])

        rec([])
        return rows

    def solve(self) -> EllipticEigenpair:
        n, K, Kw = self.n, self.K, self.Kw
        if self.gamma == 0 or self.N == 1:
            energy = QSeries.constant(bare_energy(n, self.lam), K)
            return EllipticEigenpair(
                n, self.lam, energy, {n: QSeries.constant(_ONE, K)}, K, self.budget
            )

        rows = self._build_rows()
        zero_pref = (0,) * (self.N - 1)
        label = {P: from_prefix(P, n) for P in rows}
        gap = {P: energy_gap(label[P], n, self.lam) for P in rows}
        vmin = {P: max(0, max(-t for t in P)) for P in rows}
        rdeg = {P: sum(P) for P in rows}

        lowered = sorted((P for P in rows if rdeg[P] < 0), key=lambda P: (rdeg[P], P))
        level0 = sorted(
            P for P in rows if rdeg[P] == 0 and P != zero_pref
        )
        raised = sorted((P for P in rows if rdeg[P] > 0), key=lambda P: (rdeg[P], P))
        sweep = lowered + level0 + [zero_pref] + raised

        vals = {P: [None] * (Kw + 1) for P in rows}
        evals = [None] * (Kw + 1)
        self._vals, self._evals = vals, evals

        for k in range(Kw + 1):
            for P in sweep:
                if P == zero_pref:
                    if k == 0:
                        evals[0] = bare_energy(n, self.lam)
                        vals[P][0] = _ONE
                    else:
                        vals[P][k] = _ZERO
                        evals[k] = _mul(-self.gamma, self._hops(P, k, label, vals))
                    continue
                if k < vmin[P]:
                    vals[P][k] = _ZERO
                    continue
                rhs = _mul(self.gamma, self._hops(P, k, label, vals))
                for t in range(1, k + 1):
                    prev = vals[P][k - t]
                    if not _is_zero(prev):
                        rhs = _add(rhs, _mul(evals[t], prev))
                D = gap[P]
                if D != 0:
                    vals[P][k] = _mul(_ONE / D, rhs)
                else:
                    self._resonant_row(P, k, rhs, label)

        return self._report(rows, label, rdeg, vals, evals)

    def _hops(self, P, k, label, vals):
        """gamma-free hop sum sum_{j<k} sum_{nu} sum_t S_nu^(t) alpha^(k-t)(m - nu E)."""
        acc = _ZERO
        for (j, kk) in self.pairs:
            lo, hi = j - 1, kk - 1  # affected prefix indices lo..hi-1
            for nu in self._nu_range():
                stab = self._stab[nu]
                Pn = list(P)
                for t in range(lo, hi):
                    Pn[t] -= nu
                Pn = tuple(Pn)
                if Pn not in vals:
                    # below the box: zero through order Kw; above the
                    # raise cap: influences only orders beyond K
                    continue
                col = vals[Pn]
                for t in range(0, k + 1):
                    w = stab[t]
                    if w == 0:
                        continue
                    v = col[k - t]
                    assert v is not None, "sweep order violated"
                    if not _is_zero(v):
                        acc = _add(acc, _mul(w, v))
        return acc

    def _resonant_row(self, P, k, rhs, label):
        """Constraint row with a zero gap: pin a symbol or defer a new one."""
        m = label[P]
        if isinstance(rhs, _Aff):
            sid = max(rhs.lin)
            coef = rhs.lin[sid]
            rest = _norm(rhs.const, {s: c for s, c in rhs.lin.items() if s != sid})
            repl = _mul(Fraction(-1) / coef, rest)
            self._pin(sid, repl)
        elif rhs != 0:
            raise ResonanceError(
                f"inconsistent resonant row at label {m} (order {k}): "
                f"the constraint demands {rhs} = 0",
                base=self.n,
                partner=m,
            )
        sid = self._next_sym
        self._next_sym += 1
        self._sym_home[sid] = (m, k)
        self._vals[P][k] = _Aff(_ZERO, {sid: _ONE})

    def _pin(self, sid, repl):
        for col in self._vals.values():
            for k, v in enumerate(col):
                if isinstance(v, _Aff) and sid in v.lin:
                    col[k] = _subst(v, sid, repl)
        for k, v in enumerate(self._evals):
            if isinstance(v, _Aff) and sid in v.lin:
                self._evals[k] = _subst(v, sid, repl)

    def _report(self, rows, label, rdeg, vals, evals) -> EllipticEigenpair:
        n, K = self.n, self.K
        for k in range(K + 1):
            if isinstance(evals[k], _Aff):
                m, born = self._sym_home[max(evals[k].lin)]
                raise ResonanceError(
                    f"eigenvalue order {k} depends on the unresolved resonance "
                    f"at label {m} (order {born})",
                    base=n,
                    partner=m,
                )
        energy = QSeries([evals[k] for k in range(K + 1)], K)

        coeffs = {}
        for P in rows:
            if rdeg[P] > self.budget or any(t < -K for t in P):
                continue
            # a symbol still alive here was never pinned by any constraint:
            # the degenerate-partner admixture is gauge freedom, fixed to 0
            col = [v.const if isinstance(v, _Aff) else v for v in vals[P][: K + 1]]
            ser = QSeries(col, K)
            if not ser.is_zero():
                coeffs[label[P]] = ser
        assert coeffs[n] == QSeries.constant(_ONE, K)
        assert energy.coefficient(0) == bare_energy(n, self.lam)
        return EllipticEigenpair(n, self.lam, energy, coeffs, K, self.budget)


def solve_elliptic(n, lam, K: int, budget: int) -> EllipticEigenpair:
    """Eigenvalue series and coefficient table, solved jointly order by order."""
    return _JointSolver(n, lam, K, budget).solve()


def eigenvalue_implicit(n, lam, K: int) -> QSeries:
    """Eigenvalue series from the coupled linear system.

    The implicit equation fixes the eigenvalue through the requirement
    that the m = n row of the coefficient recursion stays consistent;
    solving the system order by order is exactly that fixed point, one
    x-order per step, so no iteration cap is needed here.  The raise
    budget does not enter the eigenvalue: reported orders are exact.
    """
    return _JointSolver(n, lam, K, budget=0).solve().energy


# ---------------------------------------------------------------------------
# Independent eigenvalue route: closed hop loops and their gap weights.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _loops(N: int, K: int):
    """Closed hop sequences contributing through x-order K.

    A loop is a tuple of steps (j, k, nu), j < k, nu != 0, whose partial
    prefix sums never revisit zero before the end.  Each negative step
    costs x^|nu|, so the total negative weight is capped at K; positive
    excursions are capped by the box |P_t| <= K, which any loop of
    negative weight <= K must respect.
    """
    pairs = [(j, k) for j in range(1, N + 1) for k in range(j + 1, N + 1)]
    out = []

    def extend(pos, w, steps):
        for (j, k) in pairs:
            lo, hi = j - 1, k - 1
            seg = range(lo, hi)
            top = min(K - pos[t] for t in seg)
            bot = -min(K - w, min(pos[t] + K for t in seg))
            for nu in range(bot, top + 1):
                if nu == 0:
                    continue
                wn = w + (-nu if nu < 0 else 0)
                posn = list(pos)
                for t in seg:
                    posn[t] += nu
                if all(v == 0 for v in posn):
                    out.append(tuple(steps + [(j, k, nu)]))
                    continue
                if wn + max(0, max(posn)) > K:
                    continue
                extend(posn, wn, steps + [(j, k, nu)])

    if K >= 1 and N >= 2:
        extend([0] * (N - 1), 0, [])
    return out


def _g_all(n, lam, K: int):
    """[G_0 .. G_K] for the base label n, sharing one loop enumeration."""
    n = check_admissible(n)
    lam = _rat(lam)
    gamma = coupling(lam)
    N = len(n)
    Gs = [QSeries.zero(K) for _ in range(K + 1)]
    if gamma != 0:
        for loop in _loops(N, K):
            sprod = QSeries.constant(gamma ** len(loop), K)
            pos = [0] * (N - 1)
            invD = []
            for r, (j, k, nu) in enumerate(loop):
                sprod = sprod * S_coeff(nu, K)
                if r == len(loop) - 1:
                    break
                for t in range(j - 1, k - 1):
                    pos[t] += nu
                m = from_prefix(pos, n)
                D = energy_gap(m, n, lam)
                if D == 0:
                    raise ResonanceError(
                        f"loop through the resonant label {m} has a zero gap",
                        base=n,
                        partner=m,
                    )
                invD.append(_ONE / D)
            # complete homogeneous weights h_k(invD), built incrementally
            h = [_ONE] + [_ZERO] * K
            base = _ONE
            for v in invD:
                base *= v
                for t in range(1, K + 1):
                    h[t] = h[t] + v * h[t - 1]
            for k in range(K + 1):
                if h[k] != 0:
                    Gs[k] = Gs[k] + sprod * (base * h[k])
    return Gs


def eigenvalue_explicit(n, lam, K: int) -> QSeries:
    """Eigenvalue series by multinomial resummation of the loop sums.

    The correction Delta = E - E0(n) satisfies Delta = -sum_k G_k Delta^k;
    unrolling gives, at depth d, the signed sum over all products
    prod_j G_j^{k_j} with sum k_j = d and sum j k_j = d - 1, weighted by
    the multinomial (d-1)! / prod k_j!.  Every G_j is O(x), so depth K
    exhausts x-order K.
    """
    n = check_admissible(n)
    lam = _rat(lam)
    E0 = bare_energy(n, lam)
    if coupling(lam) == 0:
        return QSeries.constant(E0, K)
    Gs = _g_all(n, lam, K)
    delta = QSeries.zero(K)
    for d in range(1, K + 1):
        sign = -1 if d % 2 else 1

        # enumerate k_0..k_{d-1} with sum = d and weighted sum = d - 1
        def rec(j, units, wsum, term, denom):
            nonlocal delta
            if j == d:
                if units == 0 and wsum == 0:
                    coef = Fraction(sign * factorial(d - 1), denom)
                    delta = delta + term * coef
                return
            kmax = units if j == 0 else min(units, wsum // j)
            for kj in range(kmax + 1):
                t = term
                for _ in range(kj):
                    t = t * Gs[j]
                rec(j + 1, units - kj, wsum - j * kj, t, denom * factorial(kj))

        rec(0, d, d - 1, QSeries.constant(_ONE, K), 1)
    return QSeries.constant(E0, K) + delta


# ---------------------------------------------------------------------------
# Path-sum form of the coefficients, as an independent cross-check.
# ---------------------------------------------------------------------------


def _alpha_paths(n, lam, K: int, budget: int) -> dict:
    """Coefficient table by direct summation over hop paths.

    Each path n -> m contributes gamma^s prod_r S_{nu_r} / (E0(p_r) - E)
    with the full eigenvalue series E in every denominator and paths
    re-visiting n discarded.  Exponentially many terms; used to validate
    the joint solve at small budgets, not to compute with.
    """
    n = check_admissible(n)
    lam = _rat(lam)
    gamma = coupling(lam)
    N = len(n)
    one = QSeries.constant(_ONE, K)
    if gamma == 0 or N == 1:
        return {n: one}
    delta = eigenvalue_implicit(n, lam, K) - QSeries.constant(
        bare_energy(n, lam), K
    )
    pairs = [(j, k) for j in range(1, N + 1) for k in range(j + 1, N + 1)]
    box_hi = budget + (N - 1) * K
    out = {}

    def visit(pos, w, weight):
        P = tuple(pos)
        if any(t < -K for t in P) or sum(P) > budget:
            pass
        else:
            m = from_prefix(P, n)
            out[m] = out.get(m, QSeries.zero(K)) + weight
        for (j, k) in pairs:
            seg = range(j - 1, k - 1)
            top = min(box_hi - pos[t] for t in seg)
            bot = -min(K - w, min(pos[t] + K for t in seg))
            for nu in range(bot, top + 1):
                if nu == 0:
                    continue
                wn = w + (-nu if nu < 0 else 0)
                posn = list(pos)
                for t in seg:
                    posn[t] += nu
                if all(v == 0 for v in posn):
                    continue  # paths through the base label are discarded
                m = from_prefix(posn, n)
                D = energy_gap(m, n, lam)
                if D == 0:
                    raise ResonanceError(
                        f"path through the resonant label {m} has a zero gap",
                        base=n,
                        partner=m,
                    )
                denom = (QSeries.constant(D, K) - delta).reciprocal()
                wnext = weight * S_coeff(nu, K) * denom * gamma
                if wnext.is_zero():
                    continue
                visit(posn, wn, wnext)

    visit([0] * (N - 1), 0, one)
    out[n] = one
    return {m: s for m, s in out.items() if not s.is_zero()}


# ---------------------------------------------------------------------------
# Eigenfunction assembly at numeric nome.
# ---------------------------------------------------------------------------


def eigenfunction_evaluator(
    n, lam, q: float, K: int, budget: int, quad, tail_tol: float = 1e-2
):
    """Point evaluator for Psi(.; n) at nome q, plus the solved pair.

    The series are exact in x = q^2 through order K and then evaluated
    numerically; the magnitude of the last retained eigenvalue term,
    relative to the constant term, serves as the tail proxy since no
    convergence bound is available.
    """
    from .correlation import SeriesEvaluator
    from .theta import ThetaContext

    pair = solve_elliptic(n, lam, K, budget)
    xval = float(q) * float(q)
    e0 = abs(float(pair.energy.coefficient(0)))
    tail = abs(float(pair.energy.coefficient(K))) * xval**K
    if tail > tail_tol * max(1.0, e0):
        raise ConvergenceError(
            f"series tail proxy {tail:.3e} at q={q} exceeds {tail_tol} x scale; "
            "increase K or decrease q"
        )
    ctx = ThetaContext.from_q(float(q))
    lam_num = int(pair.lam) if pair.lam == int(pair.lam) else float(pair.lam)
    coeffs = {}
    for m, ser in pair.coeffs.items():
        c = complex(ser.evaluate(xval))
        if c != 0:
            coeffs[m] = c
    return SeriesEvaluator(coeffs, lam_num, ctx, quad), pair

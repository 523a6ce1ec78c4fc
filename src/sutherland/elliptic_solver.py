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
into the eigenvalue, or a degenerate symmetric label with a nonzero row
on the monomial route raises ResonanceError instead of silently
producing garbage.

The monomial route re-derives the eigenvalue independently of the joint
solve (eigenvalue_explicit): it expands the eigenfunction over symmetric
monomials times the trigonometric ground factor, with no hop weights,
no kernel labels and no raise budget, and solves the conjugated
Hamiltonian order by order, triangular in dominance.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import permutations

from .errors import ConvergenceError, ResonanceError
from .qseries import QSeries, S_coeff
from .spectrum import (
    bare_energy, check_admissible, coupling, energy_gap, from_prefix, is_admissible,
)
from .trig_solver import _dominates, _pair_action, _prefix_key

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
# Independent eigenvalue route: order by order on symmetric monomials.
# ---------------------------------------------------------------------------


def eigenvalue_explicit(n, lam, K: int) -> QSeries:
    """Eigenvalue series from the conjugated Hamiltonian on symmetric monomials.

    Write Psi = psi0_trig sum_M x^M p_M and E = sum_M x^M E_M, each p_M a
    finite map from decreasing labels nu to the coefficient of m_nu.
    Conjugation by the trigonometric ground factor leaves H'_trig (bare
    energy on the diagonal plus the pair action, triangular in dominance)
    and gamma sum_{j<k} Delta V, whose x^t term is
    -sum_{d | t} d sum_{j != k} z_j^d z_k^-d.  Order M solves

        (H'_trig - E_0) p_M - E_M p_0 = -gamma sum_t Delta V_t p_{M-t}
                                        + sum_{0<t<M} E_t p_{M-t}

    row by row from the top of dominance: row n gives E_M (gauge: p_M has
    no m_n term for M >= 1), every other row divides by its gap.  A zero
    gap that meets a nonzero row raises ResonanceError.
    """
    n = check_admissible(n)
    lam = _rat(lam)
    gamma = coupling(lam)
    E, p = [bare_energy(n, lam)], []
    acc, rows = {}, []  # per row: right-hand side minus the solved part

    def push(mu, v):
        if mu not in acc:
            acc[mu] = _ZERO
            # rows pop in decreasing _prefix_key, a linear extension of dominance
            heappush(rows, ([-s for s in _prefix_key(mu)], mu))
        acc[mu] += v

    for M in range(K + 1):
        push(n, _ZERO)
        for t in range(1, M + 1):
            for nu, c in p[M - t].items():
                for mu, d in _dV_terms(nu, t):
                    push(mu, gamma * d * c)
                if t < M:
                    push(nu, E[t] * c)
        pM = {}
        while rows:
            nu = heappop(rows)[1]
            r = acc.pop(nu)
            if nu == n:
                if M:  # gauge: p_M has no m_n term, so row n gives E_M
                    E.append(-r)
                    for mu, c in p[0].items():
                        if mu != n:
                            push(mu, -r * c)
                    continue
                a = _ONE
            else:
                gap = bare_energy(nu, lam) - E[0]
                if gap == 0 and r != 0:
                    raise ResonanceError(
                        f"symmetric label {nu} is degenerate with {n} and its "
                        f"row at order {M} is {r} != 0",
                        base=n,
                        partner=nu,
                    )
                if r == 0:
                    continue
                a = r / gap
            pM[nu] = a
            # off-diagonal part of H'_trig m_nu, read at decreasing labels
            for mu, c in _pair_action(nu, lam).items():
                if mu != nu and is_admissible(mu):
                    assert _dominates(nu, mu), "pair action left the dominance cone"
                    push(mu, -c * a)
        p.append(pM)
    return QSeries(E, K)


def _dV_terms(nu, t):
    """(label, d) for every term of -Delta V_t m_nu at a decreasing label."""
    for sigma in set(permutations(nu)):
        for j, k in permutations(range(len(nu)), 2):
            for d in range(1, t + 1):
                mono = list(sigma)
                mono[j] += d
                mono[k] -= d
                if t % d == 0 and is_admissible(mono):
                    yield tuple(mono), d


# ---------------------------------------------------------------------------
# Eigenfunction assembly at numeric nome.
# ---------------------------------------------------------------------------


def tail_proxy(pair: EllipticEigenpair, q: float, tail_tol: float = 1e-2) -> float:
    """Last retained eigenvalue term at nome q, the series' tail proxy.

    No convergence bound is available; above tail_tol x max(1, |E0|) the
    proxy raises ConvergenceError.
    """
    xval = float(q) * float(q)
    e0 = abs(float(pair.energy.coefficient(0)))
    tail = abs(float(pair.energy.coefficient(pair.K))) * xval**pair.K
    if tail > tail_tol * max(1.0, e0):
        raise ConvergenceError(
            f"series tail proxy {tail:.3e} at q={q} exceeds {tail_tol} x scale; "
            "increase K or decrease q"
        )
    return tail


def eigenfunction_evaluator(
    n, lam, q: float, K: int, budget: int, quad, tail_tol: float = 1e-2
):
    """Point evaluator for Psi(.; n) at nome q, plus the solved pair.

    The series are exact in x = q^2 through order K and then evaluated
    numerically, once their tail proxy passes tail_tol.
    """
    from .correlation import SeriesEvaluator
    from .theta import ThetaContext

    pair = solve_elliptic(n, lam, K, budget)
    tail_proxy(pair, q, tail_tol)
    xval = float(q) * float(q)
    ctx = ThetaContext.from_q(float(q))
    lam_num = int(pair.lam) if pair.lam == int(pair.lam) else float(pair.lam)
    coeffs = {}
    for m, ser in pair.coeffs.items():
        c = complex(ser.evaluate(xval))
        if c != 0:
            coeffs[m] = c
    return SeriesEvaluator(coeffs, lam_num, ctx, quad), pair

"""Elliptic series solver: frozen ladders, cross-route agreement, resonances.

The frozen numbers below were computed by hand from the order-by-order
recursion and independently re-derived through a second eigenvalue
route before being pinned here; the two eigenvalue routes, the joint
hop solve and the symmetric-monomial solve, share only the bare energy,
the coupling and the series type.  The path sum `alpha_paths` is the
oracle for the joint solve's coefficient table.
"""
from fractions import Fraction as F

import pytest

import sutherland.elliptic_solver as elliptic_solver
from sutherland.elliptic_solver import (
    EllipticEigenpair,
    eigenfunction_evaluator,
    eigenvalue_explicit,
    eigenvalue_implicit,
    solve_elliptic,
)
from sutherland.correlation import QuadratureSpec
from sutherland.errors import AdmissibilityError, ConvergenceError, ResonanceError
from sutherland.qseries import QSeries, S_coeff
from sutherland.spectrum import (
    bare_energy,
    check_admissible,
    coupling,
    energy_gap,
    from_prefix,
)
from sutherland.trig_solver import alpha_recursive, eigenfunction_trig

QUAD = QuadratureSpec()


def one(K):
    return QSeries.constant(F(1), K)


def alpha_paths(n, lam, K: int, budget: int) -> dict:
    """Coefficient table by direct summation over hop paths.

    Each path n -> m contributes gamma^s prod_r S_{nu_r} / (E0(p_r) - E)
    with the full eigenvalue series E in every denominator and paths
    re-visiting n discarded.  Exponentially many terms; used to validate
    the joint solve at small budgets, not to compute with.
    """
    n = check_admissible(n)
    lam = F(lam)
    gamma = coupling(lam)
    N = len(n)
    one = QSeries.constant(F(1), K)
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
# joint solve, frozen ladders
# ---------------------------------------------------------------------------


def test_frozen_ladder_n10_lambda2():
    pair = solve_elliptic((1, 0), 2, K=2, budget=3)
    assert pair.energy == QSeries([17, 2, F(17, 2)], 2)
    assert pair.coeffs[(1, 0)] == one(2)
    assert pair.coeffs[(0, 1)] == QSeries([0, -1, F(-1, 2)], 2)
    assert pair.coeffs[(-1, 2)] == QSeries([0, 0, -1], 2)
    assert pair.coeffs[(2, -1)].coefficient(0) == F(1, 2)
    assert pair.coeffs[(2, -1)].coefficient(1) == F(-1, 8)
    assert pair.coeffs[(3, -2)].coefficient(0) == F(1, 2)
    assert pair.coeffs[(3, -2)].coefficient(1) == F(-3, 8)


def test_frozen_eigenvalue_n20_lambda2():
    e = eigenvalue_implicit((2, 0), 2, K=2)
    assert e == QSeries([26, F(16, 15), F(18464, 3375)], 2)


def test_eigenvalue_budget_invariance():
    # the raise budget truncates the coefficient table, never the energy
    for budget in (0, 2, 5):
        pair = solve_elliptic((1, 0), 2, K=3, budget=budget)
        assert pair.energy == eigenvalue_implicit((1, 0), 2, 3)


def test_nome_zero_column_matches_trig_recursion():
    for n, lam in [((1, 0), 2), ((2, 0), 3), ((2, 1, 0), 2)]:
        budget = 4
        pair = solve_elliptic(n, lam, K=1, budget=budget)
        trig = alpha_recursive(n, lam, budget)
        for m, c in trig.entries.items():
            assert pair.coeffs[m].coefficient(0) == c
        for m, ser in pair.coeffs.items():
            assert ser.coefficient(0) == trig[m]


def test_centre_of_mass_is_conserved():
    pair = solve_elliptic((2, 1, 0), 2, K=1, budget=3)
    assert all(sum(m) == 3 for m in pair.coeffs)


def test_lambda_one_collapses_exactly():
    for n in [(1, 0), (3, 1), (2, 1, 0)]:
        for K in (0, 2, 4):
            pair = solve_elliptic(n, 1, K=K, budget=4)
            e0 = bare_energy(n, 1)
            assert pair.energy == QSeries.constant(e0, K)
            assert pair.coeffs == {n: one(K)}
            assert eigenvalue_explicit(n, 1, K) == QSeries.constant(e0, K)


def test_admissibility_is_enforced():
    with pytest.raises(AdmissibilityError):
        solve_elliptic((0, 1), 2, K=1, budget=1)


def test_float_coupling_must_be_integral():
    assert eigenvalue_implicit((1, 0), 2.0, 1) == eigenvalue_implicit((1, 0), 2, 1)
    with pytest.raises(TypeError):
        eigenvalue_implicit((1, 0), 1.5, 1)


# ---------------------------------------------------------------------------
# first order by hand
# ---------------------------------------------------------------------------


def test_g_leading_order_against_direct_two_step_sum():
    # for two particles the order-x correction is second-order perturbation
    # theory in the two round trips through n +/- (1, -1):
    # E_1 = -gamma^2 sum_{nu = +/-1} 1/gap
    for n, lam in [((1, 0), 2), ((2, 0), 3), ((5, 1), 2)]:
        gamma = coupling(lam)
        acc = F(0)
        for nu in (1, -1):
            m = (n[0] + nu, n[1] - nu)
            acc += F(1) / energy_gap(m, n, lam)
        assert eigenvalue_explicit(n, lam, 1).coefficient(1) == -gamma * gamma * acc


def test_g_leading_order_three_particles():
    # with three particles the order-x hop-loop sum picks up six three-step
    # loops built from +e12 +e23 -e13; for n = (2, 1, 0) at lambda = 2
    # the two-step loops give 16 * (-39/140) and the three-step loops
    # 64 * 3/560, totalling -144/35 (enumerated by hand), so E_1 = 144/35
    assert eigenvalue_explicit((2, 1, 0), 2, 1).coefficient(1) == F(144, 35)


# ---------------------------------------------------------------------------
# route agreement
# ---------------------------------------------------------------------------


def test_implicit_equals_explicit_away_from_resonance():
    for n, lam in [((2, 0), 2), ((3, 1), 2), ((1, 0), 3), ((2, 1), 3)]:
        assert eigenvalue_implicit(n, lam, 3) == eigenvalue_explicit(n, lam, 3)


def test_explicit_route_hits_resonance_where_implicit_survives():
    # the gap vanishes three steps down from (1, 0) at lambda = 2, at the
    # non-symmetric partner (-2, 3); the joint solve passes the consistent
    # resonant row, and the monomial route never meets the partner
    e = eigenvalue_explicit((1, 0), 2, 3)
    assert e == QSeries([17, 2, F(17, 2), F(-13, 4)], 3)
    assert e == eigenvalue_implicit((1, 0), 2, 3)


def test_explicit_route_passes_a_consistent_symmetric_degeneracy():
    # (2, 2, -1) has the bare energy of (3, 0, 0) at every lambda; its row
    # is 0 at each order, so the degenerate admixture is gauge-fixed to 0
    # and the eigenvalue still matches the joint solve
    for lam in (2, F(3, 2)):
        assert bare_energy((2, 2, -1), lam) == bare_energy((3, 0, 0), lam)
        assert eigenvalue_explicit((3, 0, 0), lam, 2) == eigenvalue_implicit(
            (3, 0, 0), lam, 2
        )


def test_explicit_route_refuses_a_degenerate_row(monkeypatch):
    # pretend (2, -1) is degenerate with (1, 0): its order-1 row is
    # nonzero, so the route raises instead of dividing by zero
    E0 = bare_energy((1, 0), 2)

    def tied(nu, lam):
        return E0 if tuple(nu) == (2, -1) else bare_energy(nu, lam)

    monkeypatch.setattr(elliptic_solver, "bare_energy", tied)
    with pytest.raises(ResonanceError) as exc:
        eigenvalue_explicit((1, 0), 2, 1)
    assert (exc.value.base, exc.value.partner) == ((1, 0), (2, -1))


def test_explicit_route_frozen_values_at_lambda_three_halves():
    # values of the retired hop-loop route; the joint solve raises on
    # both inputs today, at a scratch order beyond K
    assert eigenvalue_explicit((1, 0, 0), F(3, 2), 2) == QSeries(
        [F(451, 16), F(111, 50), F(123303, 25000)], 2
    )
    assert eigenvalue_explicit((2, 1, 0), F(3, 2), 3) == QSeries(
        [F(707, 16), F(51, 56), F(1153713, 175616), F(233923827, 275365888)], 3
    )


def test_resonant_admixture_is_gauge_fixed_to_zero():
    # the pseudo-momenta of (-2, 3) and (1, 0) at lambda = 2 are the same
    # multiset, the degeneracy never lifts, and every resonant-row
    # constraint is vacuous: the partner admixture is reported as 0 and
    # the neighbouring order-3 coefficient takes its gauge-fixed value
    pair = solve_elliptic((1, 0), 2, K=3, budget=6)
    assert (-2, 3) not in pair.coeffs
    # by hand at order 3, row d = -2: the nu = -1 and nu = -3 hops cancel
    # (-3/2 + 3/2) and the energy part E1 * alpha2 = -2 over gap -4 remains
    assert pair.coeffs[(-1, 2)].coefficient(3) == F(1, 2)


# ---------------------------------------------------------------------------
# coefficient routes
# ---------------------------------------------------------------------------


def test_alpha_matches_path_sum():
    table = solve_elliptic((1, 0), 2, K=1, budget=3).coeffs
    paths = alpha_paths((1, 0), 2, K=1, budget=3)
    assert table == paths


def test_alpha_budget_is_stable():
    # retained coefficients are exact: widening the raise budget by two
    # leaves every one of them unchanged
    narrow = solve_elliptic((2, 0), 2, K=2, budget=2).coeffs
    wide = solve_elliptic((2, 0), 2, K=2, budget=4).coeffs
    for m, ser in narrow.items():
        assert wide.get(m) == ser


def test_alpha_lambda_one():
    assert solve_elliptic((2, 1), 1, K=2, budget=3).coeffs == {(2, 1): one(2)}


# ---------------------------------------------------------------------------
# eigenfunction assembly
# ---------------------------------------------------------------------------


def test_eigenfunction_at_zero_nome_reduces_to_trig():
    x = [0.9, 2.17]
    a = eigenfunction_evaluator((1, 0), 2, q=0.0, K=2, budget=4, quad=QUAD)[0](x)
    b = eigenfunction_trig(x, (1, 0), 2, budget=4, quad=QUAD)
    assert abs(a - b) < 1e-10 * max(1.0, abs(b))


def test_eigenfunction_tail_guard_fires_at_large_nome():
    with pytest.raises(ConvergenceError):
        eigenfunction_evaluator((1, 0), 2, q=0.5, K=2, budget=4, quad=QUAD)


def test_eigenpair_reports_inputs():
    pair = solve_elliptic((1, 0), 2, K=1, budget=2)
    assert isinstance(pair, EllipticEigenpair)
    assert (pair.n, pair.lam, pair.K, pair.budget) == ((1, 0), 2, 1, 2)

"""Elliptic series solver: frozen ladders, cross-route agreement, resonances.

The frozen numbers below were computed by hand from the order-by-order
recursion and independently re-derived through the loop-sum route before
being pinned here; the two eigenvalue routes share no code beyond the
gap formula.
"""
from fractions import Fraction as F

import pytest

from sutherland.elliptic_solver import (
    EllipticEigenpair,
    _alpha_paths,
    _g_all,
    _loops,
    eigenfunction_evaluator,
    eigenvalue_explicit,
    eigenvalue_implicit,
    solve_elliptic,
)
from sutherland.correlation import QuadratureSpec
from sutherland.errors import AdmissibilityError, ConvergenceError, ResonanceError
from sutherland.qseries import QSeries, S_coeff
from sutherland.spectrum import bare_energy, coupling, energy_gap
from sutherland.trig_solver import alpha_recursive, eigenfunction_trig

QUAD = QuadratureSpec()


def one(K):
    return QSeries.constant(F(1), K)


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
# loop sums
# ---------------------------------------------------------------------------


def test_g_frozen_n10_lambda2():
    assert _g_all((1, 0), 2, 2)[0] == QSeries([0, -2, -11], 2)
    assert _g_all((1, 0), 2, 1)[1].coefficient(1) == F(5, 4)


def test_g_leading_order_against_direct_two_step_sum():
    # for two particles the only loops alive at x-order 1 are the
    # two-step round trips (nu, -nu) with nu = +/-1, so G_0 starts as
    # gamma^2 sum over 1/gap
    for n, lam in [((1, 0), 2), ((2, 0), 3), ((5, 1), 2)]:
        gamma = coupling(lam)
        acc = F(0)
        for nu in (1, -1):
            m = (n[0] + nu, n[1] - nu)
            acc += F(1) / energy_gap(m, n, lam)
        assert _g_all(n, lam, 1)[0] == QSeries([0, gamma * gamma * acc], 1)


def test_g_leading_order_three_particles():
    # with three particles the order-x loop sum picks up six three-step
    # loops built from +e12 +e23 -e13; for n = (2, 1, 0) at lambda = 2
    # the two-step loops give 16 * (-39/140) and the three-step loops
    # 64 * 3/560, totalling -144/35 (enumerated by hand)
    assert _g_all((2, 1, 0), 2, 1)[0] == QSeries([0, F(-144, 35)], 1)


def test_g_has_no_constant_term():
    for k in range(3):
        assert _g_all((2, 0), 2, 3)[k].coefficient(0) == 0


def test_loop_enumerator_weight_law():
    # every emitted loop closes, never revisits the base in between, and
    # its hop-weight product starts exactly at x^(total negative weight)
    for N, K in [(2, 3), (3, 2)]:
        loops = _loops(N, K)
        assert loops
        for loop in loops:
            pos = [0] * (N - 1)
            for r, (j, k, nu) in enumerate(loop):
                for t in range(j - 1, k - 1):
                    pos[t] += nu
                interior = r < len(loop) - 1
                assert (not interior) or any(pos)
            assert not any(pos)
            w = sum(-nu for _, _, nu in loop if nu < 0)
            assert w <= K
            prod = one(K)
            for _, _, nu in loop:
                prod = prod * S_coeff(nu, K)
            assert all(prod.coefficient(t) == 0 for t in range(min(w, K + 1)))


# ---------------------------------------------------------------------------
# route agreement
# ---------------------------------------------------------------------------


def test_implicit_equals_explicit_away_from_resonance():
    for n, lam in [((2, 0), 2), ((3, 1), 2), ((1, 0), 3), ((2, 1), 3)]:
        assert eigenvalue_implicit(n, lam, 3) == eigenvalue_explicit(n, lam, 3)


def test_explicit_route_hits_resonance_where_implicit_survives():
    # the gap vanishes three steps down from (1, 0) at lambda = 2; the
    # loop route must refuse at K = 3 while the joint solve passes the
    # consistent resonant row and keeps an exact eigenvalue
    with pytest.raises(ResonanceError):
        eigenvalue_explicit((1, 0), 2, 3)
    assert eigenvalue_implicit((1, 0), 2, 2) == eigenvalue_explicit((1, 0), 2, 2)
    e = eigenvalue_implicit((1, 0), 2, 3)
    assert e.truncate(2) == QSeries([17, 2, F(17, 2)], 2)
    assert isinstance(e.coefficient(3), F)


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
    paths = _alpha_paths((1, 0), 2, K=1, budget=3)
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

"""Theta building blocks against a high-precision product oracle."""

import math

import mpmath as mp
import numpy as np
import pytest

from sutherland.errors import ConvergenceError, SingularityError
from sutherland.theta import (
    ThetaContext,
    big_theta,
    log_theta_derivs,
    potential_elliptic,
    potential_trig,
    theta_elliptic,
    theta_trig,
)

mp.mp.dps = 50

R_GRID = [0.31, 0.9, 1.7, 2.5, -1.1, 3.6, 5.2]
Q_GRID = [0.2, 0.4]


def theta_oracle(r, q, terms=200):
    """Direct product at 50 digits, far deeper than the library truncation."""
    rr, qq = mp.mpf(r), mp.mpf(q)
    val = mp.sin(rr / 2)
    for n in range(1, terms + 1):
        val *= 1 - 2 * qq ** (2 * n) * mp.cos(rr) + qq ** (4 * n)
    return val


def potential_oracle(r, q, wings=100):
    """Lattice sum of shifted inverse-sin-squared terms, summed symmetrically."""
    beta = -2 * mp.log(mp.mpf(q))
    total = 1 / (4 * mp.sin(mp.mpf(r) / 2) ** 2)
    for m in range(1, wings + 1):
        s = mp.sin((r + 1j * beta * m) / 2)
        total += mp.re(2 / (4 * s * s))  # m and -m terms are conjugate
    return total


class TestContext:
    def test_q_zero_collapses(self):
        ctx = ThetaContext.from_q(0.0)
        assert ctx.m_max == 0
        assert math.isinf(ctx.beta)

    def test_depth_heuristic(self):
        ctx = ThetaContext.from_q(0.2)
        # q^(2 m_max) <= TOL: ceil(ln TOL / (2 ln q)) = 11
        assert ctx.m_max == 11
        assert 0.2 ** (2 * ctx.m_max) <= ThetaContext.TOL

    def test_factor_table(self):
        ctx = ThetaContext.from_q(0.2)
        assert len(ctx.factors) == ctx.m_max
        for n in range(1, ctx.m_max + 1):
            assert ctx.factors[n - 1] == 0.2 ** (2 * n)
        assert ThetaContext.from_q(0.0).factors == ()

    def test_depth_cap(self):
        # 0.999 needs 17261 factors, past MAX_DEPTH; 0.998 needs 8627
        with pytest.raises(ConvergenceError):
            ThetaContext.from_q(0.999)
        ctx = ThetaContext.from_q(0.998)
        assert ctx.m_max <= ThetaContext.MAX_DEPTH
        assert 0.998 ** (2 * ctx.m_max) <= ThetaContext.TOL


class TestTheta:
    def test_trig_is_half_angle_sine(self):
        r = np.array(R_GRID)
        assert np.allclose(theta_trig(r), np.sin(r / 2), rtol=0, atol=1e-15)

    def test_q_zero_reduces_to_trig(self):
        ctx = ThetaContext.from_q(0.0)
        for r in R_GRID:
            assert theta_elliptic(r, ctx) == theta_trig(r)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_product_matches_oracle(self, q):
        ctx = ThetaContext.from_q(q)
        for r in R_GRID:
            want = float(theta_oracle(r, q))
            assert theta_elliptic(r, ctx) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("q", [0.0, 0.2, 0.4])
    def test_odd_and_antiperiodic(self, q):
        # theta(r + 2 pi) = -theta(r): the half-angle factor flips sign
        # while every product factor is 2 pi periodic.
        ctx = ThetaContext.from_q(q)
        for r in R_GRID:
            assert theta_elliptic(-r, ctx) == pytest.approx(-theta_elliptic(r, ctx), abs=1e-14)
            assert theta_elliptic(r + 2 * math.pi, ctx) == pytest.approx(
                -theta_elliptic(r, ctx), rel=1e-12
            )

    @pytest.mark.parametrize("q", Q_GRID)
    def test_big_theta_relation(self, q):
        # Theta(e^{ir}) = -2i e^{ir/2} theta(r)
        ctx = ThetaContext.from_q(q)
        for r in R_GRID:
            lhs = big_theta(np.exp(1j * r), ctx)
            rhs = -2j * np.exp(0.5j * r) * theta_elliptic(r, ctx)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_big_theta_q_zero(self):
        ctx = ThetaContext.from_q(0.0)
        assert big_theta(0.3 + 0.1j, ctx) == pytest.approx(1 - (0.3 + 0.1j))

    def test_big_theta_singular_argument(self):
        ctx = ThetaContext.from_q(0.2)
        with pytest.raises(SingularityError):
            big_theta(0.0, ctx)


class TestLogDerivs:
    @pytest.mark.parametrize("q", [0.0, 0.2, 0.4])
    @pytest.mark.parametrize("order", [1, 2])
    def test_against_finite_differences(self, q, order):
        # step sizes balance truncation against roundoff per order
        ctx = ThetaContext.from_q(q)
        for r in [0.7, 1.9, 2.8, -1.3]:
            f = lambda t: math.log(abs(theta_elliptic(t, ctx)))
            if order == 1:
                h = 1e-5
                fd = (f(r + h) - f(r - h)) / (2 * h)
            else:
                h = 5e-4
                fd = (f(r + h) - 2 * f(r) + f(r - h)) / (h * h)
            assert log_theta_derivs(r, ctx, order) == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_q_zero_closed_forms(self):
        ctx = ThetaContext.from_q(0.0)
        for r in [0.7, 1.9, -2.8]:
            assert log_theta_derivs(r, ctx, 1) == pytest.approx(0.5 / math.tan(r / 2))
            assert log_theta_derivs(r, ctx, 2) == pytest.approx(-0.25 / math.sin(r / 2) ** 2)

    def test_order_validation(self):
        ctx = ThetaContext.from_q(0.2)
        with pytest.raises(ValueError):
            log_theta_derivs(1.0, ctx, order=3)

    def test_collision_rejected(self):
        ctx = ThetaContext.from_q(0.2)
        with pytest.raises(SingularityError):
            log_theta_derivs(0.0, ctx, 1)


class TestPotential:
    def test_trig_form(self):
        for r in R_GRID:
            assert potential_trig(r) == pytest.approx(0.25 / math.sin(r / 2) ** 2)

    def test_collision_rejected(self):
        with pytest.raises(SingularityError):
            potential_trig(0.0)
        with pytest.raises(SingularityError):
            potential_elliptic(2 * math.pi, ThetaContext.from_q(0.2))

    def test_q_zero_reduces_exactly(self):
        ctx = ThetaContext.from_q(0.0)
        for r in R_GRID:
            assert potential_elliptic(r, ctx) == potential_trig(r)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_lattice_sum_matches_oracle(self, q):
        ctx = ThetaContext.from_q(q)
        for r in R_GRID:
            want = float(potential_oracle(r, q))
            assert potential_elliptic(r, ctx) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_equals_minus_log_second_derivative(self, q):
        # the identity behind the elliptic interaction: V = -(log theta)''
        ctx = ThetaContext.from_q(q)
        for r in R_GRID:
            lhs = potential_elliptic(r, ctx)
            rhs = -log_theta_derivs(r, ctx, 2)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

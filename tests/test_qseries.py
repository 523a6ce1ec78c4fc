"""Truncated power-series ring and the geometric hop-weight series."""

from fractions import Fraction

import pytest

from sutherland.errors import SeriesOrderError
from sutherland.qseries import QSeries, S_coeff


def F(*nums):
    return [Fraction(v) for v in nums]


class TestRing:
    def test_constructors(self):
        x = QSeries.variable(4)
        assert x.coeffs == tuple(F(0, 1, 0, 0, 0))
        c = QSeries.constant(Fraction(3, 2), 2)
        assert c.coeffs == tuple(F("3/2", 0, 0))
        assert QSeries.zero(3).is_zero()

    def test_add_mul(self):
        one = QSeries.constant(1, 5)
        x = QSeries.variable(5)
        lhs = (one + x) * (one - x)
        assert lhs == one - x * x

    def test_truncation_closes_ring(self):
        x = QSeries.variable(2)
        cubed = x * x * x  # order 3 coefficient falls off the edge
        assert cubed.is_zero()
        assert cubed.order == 2

    def test_mixed_orders_rejected(self):
        with pytest.raises(SeriesOrderError):
            QSeries.variable(3) + QSeries.variable(4)

    def test_reciprocal_geometric(self):
        one = QSeries.constant(1, 6)
        x = QSeries.variable(6)
        inv = (one - x).reciprocal()
        assert inv.coeffs == tuple(F(1, 1, 1, 1, 1, 1, 1))
        assert ((one - x) * inv) == one

    def test_reciprocal_needs_unit(self):
        with pytest.raises(ZeroDivisionError):
            QSeries.variable(3).reciprocal()

    def test_division_roundtrip(self):
        x = QSeries.variable(5)
        a = QSeries.constant(2, 5) + 3 * x + x * x
        b = QSeries.constant(1, 5) - x
        assert (a / b) * b == a

    def test_scalar_ops_stay_exact(self):
        x = QSeries.variable(3)
        s = (x * Fraction(1, 3) + QSeries.constant(1, 3)) / 2
        assert all(isinstance(c, Fraction) for c in s.coeffs)
        assert s.coefficient(1) == Fraction(1, 6)

    def test_coefficient_bounds(self):
        x = QSeries.variable(3)
        assert x.coefficient(1) == 1
        with pytest.raises(SeriesOrderError):
            x.coefficient(4)

    def test_shift_and_truncate(self):
        x = QSeries.variable(4)
        s = QSeries.constant(1, 4) + x
        assert s.shift(2).coeffs == tuple(F(0, 0, 1, 1, 0))
        assert s.truncate(1).coeffs == tuple(F(1, 1))

    def test_evaluate_horner(self):
        s = QSeries(F(1, -2, 3), 2)
        assert s.evaluate(Fraction(1, 2)) == 1 - 1 + Fraction(3, 4)


class TestHopWeights:
    def test_positive_direction(self):
        assert S_coeff(1, 4).coeffs == tuple(F(1, 1, 1, 1, 1))
        assert S_coeff(2, 5).coeffs == tuple(F(2, 0, 2, 0, 2, 0))

    def test_negative_direction(self):
        assert S_coeff(-1, 4).coeffs == tuple(F(0, 1, 1, 1, 1))
        assert S_coeff(-2, 5).coeffs == tuple(F(0, 0, 2, 0, 2, 0))

    def test_zero_hop(self):
        assert S_coeff(0, 3).is_zero()

    def test_difference_is_constant(self):
        # the q = 0 limit: S(nu) - S(-nu) = nu exactly, order by order
        for nu in (1, 2, 3, 5):
            diff = S_coeff(nu, 8) - S_coeff(-nu, 8)
            assert diff == QSeries.constant(nu, 8)

    def test_geometric_identity(self):
        # (1 - x^nu) S(nu) = nu exactly at every truncation order
        for nu in (1, 2, 3):
            K = 7
            one = QSeries.constant(1, K)
            xnu = QSeries.variable(K).shift(nu - 1) if nu > 1 else QSeries.variable(K)
            assert (one - xnu) * S_coeff(nu, K) == QSeries.constant(nu, K)


class TestArithDispatch:
    def test_ops(self):
        a = QSeries.constant(1, 3) + QSeries.variable(3)
        b = QSeries.constant(1, 3) - QSeries.variable(3)
        assert a + b == QSeries.constant(2, 3)
        assert a - b == 2 * QSeries.variable(3)
        # (1 + x) / (1 - x) = 1 + 2x + 2x^2 + ...
        assert a / b == QSeries([1, 2, 2, 2], 3)

"""Truncated power series in x = q^2 with exact coefficients.

Every series carries an explicit truncation order K and stores
coefficients for x^0 .. x^K.  Arithmetic never mixes orders: that is a
bug in the caller, not something to paper over, so it raises
SeriesOrderError.  Coefficients are Fractions unless the caller feeds
floats; operations are coefficient-wise and work for any scalar ring.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import SeriesOrderError

_ZERO = Fraction(0)


class QSeries:
    """Polynomial truncation sum_{t=0}^{K} c_t x^t of a power series."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int):
        coeffs = list(coeffs)
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) > order + 1:
            raise ValueError(f"{len(coeffs)} coefficients exceed order {order}")
        coeffs.extend([_ZERO] * (order + 1 - len(coeffs)))
        self.coeffs = tuple(coeffs)
        self.order = order

    @classmethod
    def constant(cls, value, order: int) -> "QSeries":
        return cls([value], order)

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls([], order)

    @classmethod
    def variable(cls, order: int) -> "QSeries":
        """The series x itself."""
        return cls([_ZERO, Fraction(1)], order) if order >= 1 else cls([], order)

    def _check(self, other: "QSeries"):
        if self.order != other.order:
            raise SeriesOrderError(f"order mismatch: {self.order} != {other.order}")

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return self + QSeries.constant(other, self.order)
        self._check(other)
        return QSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    __radd__ = __add__

    def __neg__(self):
        return QSeries([-a for a in self.coeffs], self.order)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.constant(other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return QSeries([a * other for a in self.coeffs], self.order)
        self._check(other)
        K = self.order
        out = [_ZERO] * (K + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(K + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return QSeries(out, K)

    __rmul__ = __mul__

    def reciprocal(self) -> "QSeries":
        """1/self by forward substitution; needs a nonzero constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("series has zero constant term")
        inv0 = Fraction(1, c0) if isinstance(c0, (int, Fraction)) else 1.0 / c0
        out = [inv0] + [_ZERO] * self.order
        for t in range(1, self.order + 1):
            acc = _ZERO
            for s in range(1, t + 1):
                if self.coeffs[s] != 0:
                    acc += self.coeffs[s] * out[t - s]
            out[t] = -inv0 * acc
        return QSeries(out, self.order)

    def __truediv__(self, other):
        if isinstance(other, QSeries):
            return self * other.reciprocal()
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)
        return self * (1.0 / other)

    def __eq__(self, other):
        return (
            isinstance(other, QSeries)
            and self.order == other.order
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def coefficient(self, t: int):
        if not 0 <= t <= self.order:
            raise SeriesOrderError(f"coefficient {t} outside truncation order {self.order}")
        return self.coeffs[t]

    def shift(self, k: int) -> "QSeries":
        """Multiply by x^k, truncating at the same order."""
        if k < 0:
            raise ValueError("negative shift would leave the polynomial ring")
        return QSeries([_ZERO] * min(k, self.order + 1) + list(self.coeffs[: self.order + 1 - k]), self.order)

    def truncate(self, order: int) -> "QSeries":
        if order > self.order:
            raise SeriesOrderError(f"cannot extend order {self.order} to {order}")
        return QSeries(self.coeffs[: order + 1], order)

    def evaluate(self, x):
        """Horner evaluation at a numeric point."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return f"QSeries({list(self.coeffs)!r}, order={self.order})"


def S_coeff(nu: int, K: int) -> QSeries:
    """Geometric hop-weight series in x = q^2, truncated at order K.

    nu > 0:  nu / (1 - x^nu)        (coefficient nu at every t = u*nu, u >= 0)
    nu < 0:  |nu| x^|nu| / (1 - x^|nu|)  (same, but starting at u = 1)
    nu = 0:  0

    The difference S_coeff(nu) - S_coeff(-nu) is exactly the constant
    nu, which is what makes the q = 0 limit trigonometric.
    """
    coeffs = [_ZERO] * (K + 1)
    if nu != 0:
        a = abs(nu)
        for t in range(0 if nu > 0 else a, K + 1, a):
            coeffs[t] = Fraction(a)
    return QSeries(coeffs, K)


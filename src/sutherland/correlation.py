"""Correlation kernels, the ground factor, and the functional identity.

The central object is the nested contour integral

    P(x; n) = (prod_j circle-mean over xi_j on |xi_j| = e^{eps j}) of
              prod_j xi_j^{n_j} * prod_{j<k} Theta(xi_j/xi_k)^lam
                                / prod_{j,k} Theta(e^{i x_j}/xi_k)^lam,

computed by the trapezoidal rule on each circle (spectrally accurate
for periodic analytic integrands).  Eigenfunctions are finite sums
sum_m c_m P(x; m) psi0(x), and the Hamiltonian is applied with fully
analytic derivatives: x enters the integrand only through the factors
Theta(e^{i x_j}/xi_k)^(-lam), so d/dx_j brings down explicit log-Theta
derivative sums that are evaluated on the same quadrature grid, and
psi0 derivatives come from closed-form log-theta derivatives.  No
numerical differencing anywhere.

Powers of Theta at non-integer lam are taken factor by factor with the
principal branch; every factor stays in the right half-plane on the
nested contours, so this is unambiguous there.  Powers of the real
half-angle theta at non-integer lam follow the sign(theta)^floor(lam)
* |theta|^lam convention, and identity checks that would hit a
negative factor refuse with BranchCutError instead of guessing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchCutError, ConvergenceError, SingularityError
from .spectrum import coupling
from .theta import (
    _TINY,
    ThetaContext,
    big_theta,
    log_theta_derivs,
    potential_elliptic,
    theta_elliptic,
)

__all__ = [
    "QuadratureSpec",
    "psi0",
    "cP_kernel",
    "kernel_batch",
    "apply_hamiltonian",
    "functional_identity_residual",
    "Psi0Evaluator",
    "SeriesEvaluator",
]

_MAX_PARTICLES = 4


@dataclass(frozen=True)
class QuadratureSpec:
    """Nested-circle trapezoid rule: M points per circle, radii e^{eps j}.

    Convergence is monitored by comparing the M-point mean against its
    stride-2 subsample.  That difference estimates the coarse (M/2)
    error; the spectral rate makes the returned M-point value roughly
    its square, so conv_tol bounds the estimator, not the result.
    """

    points_per_circle: int = 64
    epsilon: float = 0.5
    conv_tol: float = 1e-5

    def __post_init__(self):
        M = self.points_per_circle
        if M < 16 or M & (M - 1):
            raise ValueError("points_per_circle must be a power of two >= 16")
        if not self.epsilon > 0:
            raise ValueError("contour spacing must be positive")

    def validate(self, ctx: ThetaContext, N: int) -> None:
        """The N nested circles must fit strictly inside the first lattice shell."""
        if self.epsilon * N >= ctx.beta:
            raise ValueError(
                f"contour spacing {self.epsilon} puts circle {N} outside "
                f"beta = {ctx.beta}"
            )

    @classmethod
    def auto(cls, ctx: ThetaContext, N: int, points_per_circle: int = 64) -> "QuadratureSpec":
        eps = 0.5 if math.isinf(ctx.beta) else min(0.5, ctx.beta / (2 * N))
        return cls(points_per_circle=points_per_circle, epsilon=eps)


# ---------------------------------------------------------------------------
# Real-argument theta powers and the pair products.
# ---------------------------------------------------------------------------


def _theta_pow(r: float, lam, ctx: ThetaContext) -> float:
    v = float(theta_elliptic(r, ctx))
    if abs(v) < _TINY:
        raise SingularityError(f"theta factor vanishes at separation {r}")
    lf = float(lam)
    if lf == int(lf):
        return v ** int(lf)
    return (-1.0 if v < 0 else 1.0) ** math.floor(lf) * abs(v) ** lf


def _has_negative_factor(x, y, ctx: ThetaContext) -> bool:
    vals = []
    for j in range(len(x)):
        for k in range(j + 1, len(x)):
            vals.append(theta_elliptic(x[j] - x[k], ctx))
    for j in range(len(y)):
        for k in range(j + 1, len(y)):
            vals.append(theta_elliptic(y[k] - y[j], ctx))
    for xj in x:
        for yk in y:
            vals.append(theta_elliptic(xj - yk, ctx))
    return any(v < 0 for v in vals)


def psi0(x, lam, ctx: ThetaContext) -> complex:
    """Ground factor e^{i N lam sum_j x_j / 2} prod_{j<k} theta(x_j - x_k)^lam."""
    x = list(x)
    N = len(x)
    out = cmath.exp(0.5j * N * float(lam) * sum(x))
    for j in range(N):
        for k in range(j + 1, N):
            out *= _theta_pow(x[j] - x[k], lam, ctx)
    return out


# ---------------------------------------------------------------------------
# Nested contour quadrature.
# ---------------------------------------------------------------------------


def _big_theta_pow(w: np.ndarray, lam, ctx: ThetaContext) -> np.ndarray:
    """Theta(w)^lam, factor-by-factor principal powers for non-integer lam."""
    lf = float(lam)
    if lf == int(lf):
        return big_theta(w, ctx) ** int(lf)
    out = np.power(1.0 - w, lf)
    for fac in ctx.factors:
        out = out * np.power(1.0 - fac * w, lf) * np.power(1.0 - fac / w, lf)
    return out


def _glog(w: np.ndarray, ctx: ThetaContext) -> np.ndarray:
    """d/dw log Theta(w) as a sum of per-factor log-derivatives."""
    out = -1.0 / (1.0 - w)
    for fac in ctx.factors:
        out = out - fac / (1.0 - fac * w) + (fac / (w * w)) / (1.0 - fac / w)
    return out


def _glog_prime(w: np.ndarray, ctx: ThetaContext) -> np.ndarray:
    """d^2/dw^2 log Theta(w)."""
    out = -1.0 / (1.0 - w) ** 2
    for fac in ctx.factors:
        out = out - fac * fac / (1.0 - fac * w) ** 2
        den = w * w - fac * w
        out = out - fac * (2.0 * w - fac) / (den * den)
    return out


def _check_collision_free(x):
    x = [float(v) for v in x]
    for j in range(len(x)):
        for k in range(j + 1, len(x)):
            if abs(math.sin(0.5 * (x[j] - x[k]))) < 1e-9:
                raise SingularityError(
                    f"coordinates {j + 1} and {k + 1} collide mod 2 pi"
                )
    return x


class _KernelGrid:
    """Quadrature state shared by every label and derivative at one point x.

    Holds the integrand weight W on the full product grid plus, on
    demand, the per-coordinate log-derivative fields L_j and their
    x_j-derivatives, so that value, gradient, and diagonal second
    derivatives of P(x; m) are all plain grid means.
    """

    def __init__(self, x, lam, ctx: ThetaContext, quad: QuadratureSpec, derivs: bool):
        x = _check_collision_free(x)
        N = len(x)
        if N > _MAX_PARTICLES:
            raise ValueError(f"kernel quadrature capped at {_MAX_PARTICLES} particles")
        quad.validate(ctx, N)
        M = quad.points_per_circle
        if M**N > 1 << 22:
            raise ValueError(
                f"product grid {M}^{N} exceeds desk scale; lower points_per_circle"
            )
        self.N, self.M = N, M
        phi = 2.0 * np.pi * np.arange(M) / M
        ring = np.exp(1j * phi)
        # axis j of the product grid carries circle j+1 (radius e^{eps (j+1)})
        self.nodes = [math.exp(quad.epsilon * (j + 1)) * ring for j in range(N)]
        grids = np.meshgrid(*self.nodes, indexing="ij", sparse=True)

        z = [cmath.exp(1j * v) for v in x]
        # an integrand past double range is refused by the finiteness check
        # below, without numpy warnings ahead of the refusal
        with np.errstate(all="ignore"):
            W = np.ones((M,) * N, dtype=complex)
            for j in range(N):
                for k in range(j + 1, N):
                    W = W * _big_theta_pow(grids[j] / grids[k], lam, ctx)
            for j in range(N):
                for k in range(N):
                    W = W / _big_theta_pow(z[j] / grids[k], lam, ctx)
        if not np.isfinite(W).all():
            raise ConvergenceError(f"kernel integrand at x={x} overflows at lambda={lam}")
        L = Lp = None
        if derivs:
            lf = float(lam)
            L = [np.zeros((M,) * N, dtype=complex) for _ in range(N)]
            Lp = [np.zeros((M,) * N, dtype=complex) for _ in range(N)]
            for j in range(N):
                for k in range(N):
                    w = z[j] / grids[k]
                    g = _glog(w, ctx)
                    L[j] = L[j] - lf * 1j * w * g
                    Lp[j] = Lp[j] + lf * (w * g + w * w * _glog_prime(w, ctx))
        self.W = W
        self.L = L
        self.Lp = Lp

    def _mean_pair(self, field: np.ndarray, m) -> tuple[complex, complex]:
        """Grid mean of field * prod xi^m at full and half resolution."""
        val = field
        for j, e in enumerate(m):
            shape = [1] * self.N
            shape[j] = self.M
            val = val * (self.nodes[j] ** int(e)).reshape(shape)
        full = complex(val.mean())
        half = complex(val[(slice(None, None, 2),) * self.N].mean())
        return full, half

    def value(self, m) -> complex:
        full, half = self._mean_pair(self.W, m)
        return full

    def value_checked(self, m, conv_tol: float) -> complex:
        full, half = self._mean_pair(self.W, m)
        err = abs(full - half)
        if err > conv_tol * max(1.0, abs(full)):
            raise ConvergenceError(
                f"quadrature not converged for label {tuple(m)}: halving the "
                f"grid moves the value by {err:.3e}"
            )
        return full

    def derivative_triplet(self, m):
        """(P, [dP/dx_j], [d2P/dx_j2]) for one label."""
        P = self.value(m)
        dP = [self._mean_pair(self.W * self.L[j], m)[0] for j in range(self.N)]
        d2P = [
            self._mean_pair(self.W * (self.L[j] * self.L[j] + self.Lp[j]), m)[0]
            for j in range(self.N)
        ]
        return P, dP, d2P


def cP_kernel(x, n, lam, ctx: ThetaContext, quad: QuadratureSpec) -> complex:
    """Contour-quadrature kernel value P(x; n) with a built-in refinement check."""
    grid = _KernelGrid(x, lam, ctx, quad, derivs=False)
    return grid.value_checked(tuple(n), quad.conv_tol)


def kernel_batch(x, labels, lam, ctx: ThetaContext, quad: QuadratureSpec) -> dict:
    """P(x; m) for many labels m sharing one quadrature grid."""
    grid = _KernelGrid(x, lam, ctx, quad, derivs=False)
    return {tuple(m): grid.value_checked(tuple(m), quad.conv_tol) for m in labels}


# ---------------------------------------------------------------------------
# Wavefunction evaluators with analytic derivatives.
# ---------------------------------------------------------------------------


class Psi0Evaluator:
    """Ground factor with closed-form log-derivatives."""

    def __init__(self, lam, ctx: ThetaContext):
        self.lam = lam
        self.ctx = ctx

    def __call__(self, x) -> complex:
        return psi0(x, self.lam, self.ctx)

    def _logderivs(self, x):
        N = len(x)
        lf = float(self.lam)
        u = []
        up = []
        for j in range(N):
            s1 = 0.5j * N * lf
            s2 = 0.0
            for k in range(N):
                if k == j:
                    continue
                s1 += lf * log_theta_derivs(x[j] - x[k], self.ctx, 1)
                s2 += lf * log_theta_derivs(x[j] - x[k], self.ctx, 2)
            u.append(s1)
            up.append(s2)
        return u, up

    def derivatives(self, x):
        val = self(x)
        u, up = self._logderivs(list(map(float, x)))
        grad = [val * uj for uj in u]
        second = [val * (uj * uj + upj) for uj, upj in zip(u, up)]
        return val, grad, second


class SeriesEvaluator:
    """Eigenfunction sum_m c_m P(x; m) psi0(x) with analytic derivatives."""

    def __init__(self, coeffs: dict, lam, ctx: ThetaContext, quad: QuadratureSpec):
        self.coeffs = {tuple(m): complex(c) for m, c in coeffs.items()}
        self.lam = lam
        self.ctx = ctx
        self.quad = quad
        self._psi0 = Psi0Evaluator(lam, ctx)

    def __call__(self, x) -> complex:
        grid = _KernelGrid(x, self.lam, self.ctx, self.quad, derivs=False)
        acc = 0j
        for m, c in self.coeffs.items():
            acc += c * grid.value(m)
        return acc * self._psi0(x)

    def derivatives(self, x):
        x = list(map(float, x))
        N = len(x)
        grid = _KernelGrid(x, self.lam, self.ctx, self.quad, derivs=True)
        S = 0j
        dS = [0j] * N
        d2S = [0j] * N
        for m, c in self.coeffs.items():
            P, dP, d2P = grid.derivative_triplet(m)
            S += c * P
            for j in range(N):
                dS[j] += c * dP[j]
                d2S[j] += c * d2P[j]
        val0, grad0, sec0 = self._psi0.derivatives(x)
        u, up = self._psi0._logderivs(x)
        val = S * val0
        grad = [val0 * (dS[j] + S * u[j]) for j in range(N)]
        second = [
            val0 * (d2S[j] + 2.0 * dS[j] * u[j] + S * (u[j] * u[j] + up[j]))
            for j in range(N)
        ]
        return val, grad, second


def apply_hamiltonian(psi, x, lam, ctx: ThetaContext) -> complex:
    """(-sum_j d2/dx_j2 + gamma sum_{j<k} V(x_j - x_k)) psi at x, analytically."""
    x = _check_collision_free(x)
    val, _grad, second = psi.derivatives(x)
    gamma = float(coupling(lam))
    pot = 0.0
    for j in range(len(x)):
        for k in range(j + 1, len(x)):
            pot += float(potential_elliptic(x[j] - x[k], ctx))
    return -sum(second) + gamma * pot * val


# ---------------------------------------------------------------------------
# Functional identity.
# ---------------------------------------------------------------------------


def functional_identity_residual(x, y, lam, ctx: ThetaContext) -> float:
    """|H(x)F - H(y)F| / |F| for the balanced correlation ratio F(x; y).

    Both sides are assembled from analytic log-theta derivatives:
    H(x)F/F = sum_j [-(L_j^2 + dL_j/dx_j)] + gamma sum_{j<k} V(x_j - x_k)
    with L_j = d log F / dx_j, and symmetrically in y.
    """
    x = _check_collision_free(x)
    y = _check_collision_free(y)
    if len(x) != len(y):
        raise ValueError("the identity compares equal particle numbers")
    for xj in x:
        for yk in y:
            if abs(math.sin(0.5 * (xj - yk))) < 1e-9:
                raise SingularityError("x and y coordinates collide mod 2 pi")
    lf = float(lam)
    if lf != int(lf) and _has_negative_factor(x, y, ctx):
        raise BranchCutError(
            "non-integer coupling exponent with a negative theta factor: "
            "the identity check would cross a branch cut"
        )
    N = len(x)
    gamma = float(coupling(lam))

    def side(a, b):
        # H(a)F/F with a the differentiated set and b the partner set.
        # The same formula serves both sides: the first log-derivative is
        # odd, so the mixed term -l'(a_j - b_k) is what each side sees.
        total = 0.0
        for j in range(N):
            L = 0.0
            Lp = 0.0
            for k in range(N):
                if k != j:
                    L += lf * log_theta_derivs(a[j] - a[k], ctx, 1)
                    Lp += lf * log_theta_derivs(a[j] - a[k], ctx, 2)
            for k in range(N):
                L -= lf * log_theta_derivs(a[j] - b[k], ctx, 1)
                Lp -= lf * log_theta_derivs(a[j] - b[k], ctx, 2)
            total += -(L * L + Lp)
        for j in range(N):
            for k in range(j + 1, N):
                total += gamma * float(potential_elliptic(a[j] - a[k], ctx))
        return total

    return abs(side(x, y) - side(y, x))

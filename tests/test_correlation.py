"""Quadrature kernel, ground factor, Hamiltonian application, identity."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sutherland.correlation import (
    Psi0Evaluator,
    QuadratureSpec,
    SeriesEvaluator,
    apply_hamiltonian,
    cP_kernel,
    functional_identity_residual,
    kernel_batch,
    psi0,
)
from sutherland.errors import BranchCutError, SingularityError
from sutherland.spectrum import bare_energy
from sutherland.correlation import _big_theta_pow
from sutherland.theta import ThetaContext, big_theta, theta_elliptic
from sutherland.trig_solver import alpha_recursive, eigenfunction_trig

CTX0 = ThetaContext.from_q(0.0)
QUAD = QuadratureSpec()
# fine grid for tests that pin closed forms to near machine precision
QUAD128 = QuadratureSpec(points_per_circle=128)


class PlaneWave:
    """exp(i sum k_j x_j); the free sanity case."""

    def __init__(self, kvec):
        self.k = [float(v) for v in kvec]

    def __call__(self, x) -> complex:
        return cmath.exp(1j * sum(kj * xj for kj, xj in zip(self.k, x)))

    def derivatives(self, x):
        val = self(x)
        grad = [1j * kj * val for kj in self.k]
        second = [-(kj * kj) * val for kj in self.k]
        return val, grad, second


def c_poly(u, z, lam):
    """Coefficient of t^u in prod_j (1 - z_j t)^(-lam): the per-shell symbol."""
    if u < 0:
        return 0j
    # N = len(z) small; expand by convolution
    per = []
    for zz in z:
        per.append([math.comb(lam + i - 1, i) * zz**i for i in range(u + 1)])
    acc = per[0]
    for nxt in per[1:]:
        acc = [
            sum(acc[i] * nxt[t - i] for i in range(t + 1)) for t in range(u + 1)
        ]
    return acc[u]


def kernel_oracle(x, m, lam):
    """Closed-form q = 0 kernel for N <= 2 by coefficient extraction."""
    z = [cmath.exp(1j * v) for v in x]
    if len(x) == 1:
        return c_poly(m[0], z, lam)
    m1, m2 = m
    return sum(
        (-1) ** a * math.comb(lam, a) * c_poly(m1 + a, z, lam) * c_poly(m2 - a, z, lam)
        for a in range(lam + 1)
    )


class TestQuadratureSpec:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            QuadratureSpec(points_per_circle=48)
        with pytest.raises(ValueError):
            QuadratureSpec(points_per_circle=8)

    def test_contour_must_fit(self):
        ctx = ThetaContext.from_q(0.4)  # beta ~ 1.83
        QuadratureSpec(epsilon=0.45).validate(ctx, 2)
        with pytest.raises(ValueError):
            QuadratureSpec(epsilon=1.0).validate(ctx, 2)

    def test_auto_respects_beta(self):
        ctx = ThetaContext.from_q(0.4)
        for N in (1, 2, 3, 4):
            q = QuadratureSpec.auto(ctx, N)
            q.validate(ctx, N)


class TestPsi0:
    def test_single_particle_pure_phase(self):
        for x in (0.0, 1.1, -2.4):
            v = psi0([x], 2, CTX0)
            assert abs(v) == pytest.approx(1.0, rel=1e-14)
            assert v == pytest.approx(cmath.exp(1j * x), rel=1e-12)

    def test_exchange_statistics(self):
        a = psi0([0.4, 2.1], 2, CTX0)
        b = psi0([2.1, 0.4], 2, CTX0)
        assert a == pytest.approx(b, rel=1e-12)  # even exponent: symmetric
        a = psi0([0.4, 2.1], 3, CTX0)
        b = psi0([2.1, 0.4], 3, CTX0)
        assert a == pytest.approx(-b, rel=1e-12)  # odd exponent: antisymmetric

    def test_q_zero_modulus_is_sine_product(self):
        x = [0.3, 1.5, 4.1]
        want = 1.0
        for j in range(3):
            for k in range(j + 1, 3):
                want *= abs(math.sin(0.5 * (x[j] - x[k]))) ** 2
        assert abs(psi0(x, 2, CTX0)) == pytest.approx(want, rel=1e-12)

    def test_non_integer_power_keeps_the_sign(self):
        # branch convention at non-integer lam: theta^lam is
        # sign(theta)^floor(lam) |theta|^lam, so at lam = 3/2 a negative
        # theta flips the sign of psi0
        lam = Fraction(3, 2)
        ctx = ThetaContext.from_q(0.2)
        x = [0.9, 2.17]
        th = float(theta_elliptic(x[0] - x[1], ctx))
        assert th < 0
        want = (
            cmath.exp(0.5j * 2 * float(lam) * sum(x))
            * math.copysign(1.0, th) ** math.floor(lam)
            * abs(th) ** float(lam)
        )
        assert psi0(x, lam, ctx) == pytest.approx(want, rel=1e-12)


class TestKernel:
    def test_residue_delta(self):
        # lam = 0: the weight collapses, leaving the bare monomial mean
        for n, want in [((0,), 1.0), ((1,), 0.0), ((-2,), 0.0)]:
            got = cP_kernel([0.7], n, 0, CTX0, QUAD)
            assert got == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("lam", [2, 3])
    def test_single_particle_closed_form(self, lam):
        # binomial shells: P(x; (n)) = C(lam+n-1, n) e^{inx}, zero for n < 0
        x = 0.9
        for n in range(-2, 4):
            got = cP_kernel([x], (n,), lam, CTX0, QUAD128)
            want = kernel_oracle([x], (n,), lam)
            assert got == pytest.approx(want, abs=1e-11)

    @pytest.mark.parametrize(
        "m",
        [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (2, -1), (3, -1), (1, -1)],
    )
    def test_two_particle_closed_form(self, m):
        # hand-extracted q = 0 polynomials, e.g. P((1,1)) = -2(z1^2 + z2^2)
        # and P((2,0)) = 3 z1^2 + 4 z1 z2 + 3 z2^2; negative second label -> 0
        for x in ([0.6, 1.9], [2.8, 4.4]):
            got = cP_kernel(x, m, 2, CTX0, QUAD)
            want = kernel_oracle(x, m, 2)
            assert got == pytest.approx(want, abs=1e-10)

    def test_permutation_invariance(self):
        ctx = ThetaContext.from_q(0.2)
        quad = QuadratureSpec.auto(ctx, 2)
        a = cP_kernel([0.8, 2.3], (2, 0), 2, ctx, quad)
        b = cP_kernel([2.3, 0.8], (2, 0), 2, ctx, quad)
        assert a == pytest.approx(b, rel=1e-10)

    def test_refinement_stability(self):
        ctx = ThetaContext.from_q(0.2)
        a = cP_kernel([0.8, 2.3], (1, 0), 2, ctx, QUAD)
        b = cP_kernel([0.8, 2.3], (1, 0), 2, ctx, QUAD128)
        assert abs(a - b) < 1e-10

    def test_batch_matches_single(self):
        labels = [(1, 0), (2, -1), (0, 0)]
        batch = kernel_batch([0.5, 1.8], labels, 2, CTX0, QUAD)
        for m in labels:
            assert batch[m] == pytest.approx(cP_kernel([0.5, 1.8], m, 2, CTX0, QUAD))

    def test_particle_cap(self):
        with pytest.raises(ValueError):
            cP_kernel([0.1, 0.9, 1.7, 2.5, 3.3], (0,) * 5, 2, CTX0, QUAD)


class TestSingleTruncation:
    def test_integer_power_is_the_product_power(self):
        # the kernel and theta iterate over one factor table, so the
        # integer power is bit-identical to the power of the product
        ctx = ThetaContext.from_q(0.2)
        w = math.exp(-0.5) * np.exp(2j * np.pi * np.arange(64) / 64)
        assert (_big_theta_pow(w, 2, ctx) == big_theta(w, ctx) ** 2).all()


class TestHatF:
    def test_single_particle_modulus(self):
        # |hatF| = C(lam+n-1, n), constant in x; the n = 0 instance is 1
        for lam, n, want in [(2, 0, 1.0), (2, 1, 2.0), (2, 3, 4.0), (3, 2, 6.0)]:
            for x in (0.3, 2.2):
                got = abs(cP_kernel([x], (n,), lam, CTX0, QUAD128) * psi0([x], lam, CTX0))
                assert got == pytest.approx(want, rel=1e-11)

    def test_rest_label_proportional_to_ground(self):
        # m = (0,0): the kernel is exactly 1, so hatF = psi0
        for x in ([0.5, 1.7], [2.0, 4.1]):
            ratio = cP_kernel(x, (0, 0), 2, CTX0, QUAD)
            assert ratio == pytest.approx(1.0, rel=1e-11)


class TestApplyHamiltonian:
    def test_plane_wave_free_case(self):
        psi = PlaneWave([2.0, -1.0])
        x = [0.7, 1.9]
        got = apply_hamiltonian(psi, x, 1, CTX0)  # lam = 1: gamma = 0
        assert got == pytest.approx(5.0 * psi(x), rel=1e-12)

    @pytest.mark.parametrize("q", [0.0, 0.2])
    def test_ground_state_eigen(self, q):
        ctx = ThetaContext.from_q(q)
        ev = Psi0Evaluator(2, ctx)
        x = [0.5, 1.8, 3.4]
        got = apply_hamiltonian(ev, x, 2, ctx)
        if q == 0.0:
            want = bare_energy((0, 0, 0), 2) * ev(x)
            assert got == pytest.approx(want, rel=1e-9)
        else:
            # at q > 0 the bare ground factor is no longer an eigenfunction
            want = bare_energy((0, 0, 0), 2) * ev(x)
            assert abs(got - want) / abs(ev(x)) > 1e-2

    def test_derivatives_match_finite_differences(self):
        ctx = ThetaContext.from_q(0.2)
        quad = QuadratureSpec.auto(ctx, 2)
        table = alpha_recursive((1, 0), 2, 2)
        psi = SeriesEvaluator(table.entries, 2, ctx, quad)
        x = [0.8, 2.1]
        val, grad, second = psi.derivatives(x)
        assert val == pytest.approx(psi(x), rel=1e-12)
        h = 1e-2
        for j in range(2):
            def at(t):
                xs = list(x)
                xs[j] = t
                return psi(xs)

            t = x[j]
            fd1 = (
                -at(t + 2 * h) + 8 * at(t + h) - 8 * at(t - h) + at(t - 2 * h)
            ) / (12 * h)
            fd2 = (
                -at(t + 2 * h)
                + 16 * at(t + h)
                - 30 * at(t)
                + 16 * at(t - h)
                - at(t - 2 * h)
            ) / (12 * h * h)
            assert grad[j] == pytest.approx(fd1, rel=1e-6)
            assert second[j] == pytest.approx(fd2, rel=1e-6)

    def test_trig_eigenfunction_residual(self):
        rng = random.Random(3)
        for n, lam in [((1, 0), 2), ((1, 1), 2), ((2, 0), 3)]:
            table = alpha_recursive(n, lam, 4)
            psi = SeriesEvaluator(table.entries, lam, CTX0, QUAD)
            E = float(bare_energy(n, lam))
            for _ in range(4):
                x = [rng.uniform(0, 2 * math.pi), 0.0]
                x[1] = x[0] + rng.choice([1.1, 2.0, 2.9])
                val = psi(x)
                got = apply_hamiltonian(psi, x, lam, CTX0)
                assert abs(got - E * val) / max(1.0, abs(val)) < 1e-6

    def test_eigenfunction_trig_value(self):
        # full assembly: (1,1) at lam=2 collapses to (8/3) z1 z2 psi0
        x = [0.9, 2.6]
        got = eigenfunction_trig(x, (1, 1), 2, 3, QUAD)
        z1, z2 = cmath.exp(1j * x[0]), cmath.exp(1j * x[1])
        want = Fraction(8, 3) * z1 * z2 * psi0(x, 2, CTX0)
        assert got == pytest.approx(complex(want), rel=1e-10)


class TestFunctionalIdentity:
    def test_single_particle_symmetry(self):
        ctx = ThetaContext.from_q(0.3)
        assert functional_identity_residual([1.2], [0.3], 2, ctx) < 1e-12

    def test_trig_two_particles(self):
        rng = random.Random(17)
        for _ in range(5):
            a = rng.uniform(0, 2 * math.pi)
            x = [a, a + 1.5]
            y = [a + 0.9, a + 3.1]
            res = functional_identity_residual(x, y, 2, CTX0)
            assert res < 1e-8

    def test_elliptic_three_particles(self):
        ctx = ThetaContext.from_q(0.3)
        x = [0.4, 1.8, 3.9]
        y = [0.95, 2.75, 5.1]
        assert functional_identity_residual(x, y, 3, ctx) < 1e-7

    def test_branch_cut_refused(self):
        ctx = ThetaContext.from_q(0.2)
        with pytest.raises(BranchCutError):
            functional_identity_residual([0.4, 2.0], [1.1, 3.2], 1.5, ctx)

    def test_collisions_rejected(self):
        with pytest.raises(SingularityError):
            functional_identity_residual([0.4, 0.4], [1.1, 2.2], 2, CTX0)
        with pytest.raises(SingularityError):
            functional_identity_residual([0.4, 1.1], [0.4, 2.2], 2, CTX0)

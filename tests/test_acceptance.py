"""Acceptance checklist: nine end-to-end criteria, one verdict line each.

Each criterion prints a single `criterion k: PASS/FAIL ...` line straight
to the terminal (bypassing capture) so the whole suite reads as a
checklist.  Thresholds and runtime budgets are stated inline next to
their assertions; nothing here is loosened to force a pass.  Expected
numbers were produced by the independent routes they are checked
against (brute-force diagonalization, finite differences, quadrature),
never copied from the solver under test.
"""
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from sutherland.correlation import (
    Psi0Evaluator,
    QuadratureSpec,
    apply_hamiltonian,
    functional_identity_residual,
    kernel_batch,
)
from sutherland.elliptic_solver import (
    eigenfunction_evaluator,
    eigenvalue_explicit,
    eigenvalue_implicit,
    solve_elliptic,
)
from sutherland.fock import (
    build_sector,
    commutator,
    frobenius_norm,
    genfun_coeffs,
    genfun_operator,
    is_zero_operator,
    op_H,
    op_H0,
    op_H3,
    op_W3,
)
from sutherland.qseries import QSeries
from sutherland.spectrum import bare_energy
from sutherland.theta import (
    ThetaContext,
    big_theta,
    log_theta_derivs,
    potential_elliptic,
    potential_trig,
    theta_elliptic,
    theta_trig,
)
from sutherland.trig_solver import alpha_explicit, alpha_recursive, oracle_diagonalize


def _report(capfd, index: int, name: str, passed: bool, detail: str,
            elapsed: float, budget: float):
    verdict = "PASS" if passed and elapsed < budget else "FAIL"
    line = (
        f"criterion {index}: {verdict} {name} | {detail}"
        f" | {elapsed:.1f}s of {budget:.0f}s budget"
    )
    with capfd.disabled():
        print(line)
    assert passed, line
    assert elapsed < budget, line


def _separated(points, gap=0.15) -> bool:
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if abs(math.sin(0.5 * (points[i] - points[j]))) < gap:
                return False
    return True


def _random_admissible(rng: random.Random, N: int, lo=-3, hi=5) -> tuple:
    return tuple(sorted((rng.randint(lo, hi) for _ in range(N)), reverse=True))


# ---------------------------------------------------------------------------
# 1. Brute-force spectrum oracle.
# ---------------------------------------------------------------------------


def test_criterion_1_trig_spectrum_oracle(capfd):
    t0 = time.perf_counter()
    worst_float = 0.0
    count = 0
    for N in (2, 3):
        for lam in (1, 2, 3):
            exact = oracle_diagonalize(N, Fraction(lam), 8)
            labels = sorted(mu for _, vec in exact for mu in [_leading(vec)])
            spectrum = sorted(ev for ev, _ in exact)
            expected = sorted(bare_energy(mu, Fraction(lam)) for mu in labels)
            assert spectrum == expected  # rational mode: exact multiset match
            numeric = oracle_diagonalize(N, float(lam), 8)
            got = sorted(ev for ev, _ in numeric)
            for a, b in zip(got, [float(e) for e in expected]):
                worst_float = max(worst_float, abs(a - b))
            assert worst_float < 1e-9
            count += len(spectrum)
    _report(
        capfd, 1, "trig spectrum oracle", True,
        f"N=2,3 lam=1,2,3 degree<=8: {count} levels, exact rational;"
        f" float dev {worst_float:.1e} < 1e-9",
        time.perf_counter() - t0, 60.0,
    )


def _leading(vec: dict) -> tuple:
    # eigenvectors are normalized to 1 on their dominance-leading label
    for mu, c in vec.items():
        if c == 1 and all(_dominates(mu, nu) for nu in vec):
            return mu
    raise AssertionError("no leading label found")


def _dominates(hi: tuple, lo: tuple) -> bool:
    acc = 0
    for a, b in zip(hi, lo):
        acc += a - b
        if acc < 0:
            return False
    return acc == 0


# ---------------------------------------------------------------------------
# 2. Recursive vs explicit coefficient tables.
# ---------------------------------------------------------------------------


def test_criterion_2_coefficient_cross_check(capfd):
    t0 = time.perf_counter()
    rng = random.Random(2024)
    lams = [Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2), 3]
    for _ in range(50):
        N = rng.randint(1, 3)
        n = _random_admissible(rng, N)
        lam = rng.choice(lams)
        budget = rng.randint(0, 4)
        a = alpha_recursive(n, lam, budget)
        b = alpha_explicit(n, lam, budget)
        assert a == b  # exact Fraction equality, table for table
    _report(
        capfd, 2, "recursive == explicit coefficients", True,
        "50 random admissible labels, N<=3, budget<=4, exact",
        time.perf_counter() - t0, 60.0,
    )


# ---------------------------------------------------------------------------
# 3. Reduction to symmetric polynomials at q=0.
# ---------------------------------------------------------------------------


def _fourier_vs_oracle(n, lam, budget=6, M=24, ppc=256):
    """Worst relative deviation between the quadrature eigenfunction's
    Fourier coefficients and the oracle eigenvector, plus the largest
    leakage outside the dominance cone.  One overall constant is fixed
    on the leading label."""
    quad = QuadratureSpec(points_per_circle=ppc)
    ctx = ThetaContext.from_q(0.0)
    table = alpha_recursive(n, lam, budget)
    labels = table.support()
    vec = None
    for _E, v in oracle_diagonalize(2, lam, 4):
        if v.get(n) == 1 and all(_dominates(n, mu) for mu in v):
            vec = v
            break
    assert vec is not None
    # half-cell offset in x2 keeps the grid off the collision diagonal
    g1 = 2.0 * np.pi * np.arange(M) / M
    g2 = 2.0 * np.pi * (np.arange(M) + 0.5) / M
    vals = np.empty((M, M), dtype=complex)
    for i, x1 in enumerate(g1):
        for j, x2 in enumerate(g2):
            kern = kernel_batch([x1, x2], labels, lam, ctx, quad)
            vals[i, j] = sum(complex(table.entries[m]) * kern[m] for m in labels)
    F = np.fft.fft2(vals) / (M * M)

    def coeff(k):
        return F[k[0] % M, k[1] % M] * np.exp(-2j * np.pi * 0.5 * k[1] / M)

    base = coeff(n)
    worst = 0.0
    for mu, c in vec.items():
        got = coeff(mu) / base
        worst = max(worst, abs(got - float(c)) / max(1.0, abs(float(c))))
    leak = max(
        abs(coeff((n[0] + s, n[1] - s))) / abs(base) for s in range(1, budget + 1)
    )
    return worst, leak


def test_criterion_3_jack_reduction(capfd):
    t0 = time.perf_counter()
    labels = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 0)]
    worst = 0.0
    worst_leak = 0.0
    for lam in (Fraction(2), Fraction(3)):
        for n in labels:
            dev, leak = _fourier_vs_oracle(n, lam)
            worst = max(worst, dev)
            worst_leak = max(worst_leak, leak)
    assert worst < 1e-8  # relative, after fixing one overall constant
    assert worst_leak < 1e-8  # nothing escapes the dominance cone
    _report(
        capfd, 3, "q=0 symmetric-polynomial reduction", True,
        f"N=2 lam=2,3 total degree<=4: worst dev {worst:.1e},"
        f" cone leakage {worst_leak:.1e}, both < 1e-8",
        time.perf_counter() - t0, 300.0,
    )


# ---------------------------------------------------------------------------
# 4. Two-sided functional identity.
# ---------------------------------------------------------------------------


def test_criterion_4_functional_identity(capfd):
    t0 = time.perf_counter()
    worst = 0.0
    combo = 0
    for N in (2, 3):
        for lam in (1, 2, 3):
            for q in (0.0, 0.2, 0.4):
                ctx = ThetaContext.from_q(q)
                rng = np.random.default_rng(97 + combo)
                combo += 1
                done = 0
                while done < 100:
                    pts = rng.uniform(0.3, 5.9, size=2 * N)
                    if not _separated(list(pts)):
                        continue
                    res = functional_identity_residual(
                        list(pts[:N]), list(pts[N:]), lam, ctx
                    )
                    worst = max(worst, res)
                    done += 1
    assert worst < 1e-7
    _report(
        capfd, 4, "functional identity residual", True,
        f"100 collision-free pairs per (N, lam, q) in 2x3x3 grid:"
        f" max {worst:.1e} < 1e-7",
        time.perf_counter() - t0, 120.0,
    )


# ---------------------------------------------------------------------------
# 5. Elliptic eigenvalue: implicit vs explicit series.
# ---------------------------------------------------------------------------


def test_criterion_5_elliptic_eigenvalue_consistency(capfd):
    t0 = time.perf_counter()
    instances = {
        Fraction(2): [(2, 0), (3, 0), (3, 1), (4, 2), (5, 1)],
        Fraction(3): [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1)],
    }
    cases = [(n, lam, 3) for lam, ns in instances.items() for n in ns]
    # labels with a degenerate partner (non-symmetric for (1, 0) at K=3)
    cases += [((1, 0), Fraction(2), 3)] + [
        (n, Fraction(2), 2) for n in [(1, 0, 0), (2, 0, 0), (2, 1, 0)]
    ]
    for n, lam, K in cases:
        a = eigenvalue_implicit(n, lam, K)
        b = eigenvalue_explicit(n, lam, K)
        assert a == b  # exact rational series through order K
        assert all(isinstance(c, Fraction) for c in a.coeffs)
    _report(
        capfd, 5, "implicit == explicit eigenvalue series", True,
        "N=2, lam=2,3, five labels each, K=3; (1,0) at lam=2, K=3; "
        "N=3 (1,0,0), (2,0,0), (2,1,0) at lam=2, K=2; exact",
        time.perf_counter() - t0, 600.0,
    )


# ---------------------------------------------------------------------------
# 6. Elliptic eigenfunction residual.
# ---------------------------------------------------------------------------


def _residual_points(rng, count=10):
    out = []
    while len(out) < count:
        pt = rng.uniform(0.3, 5.9, size=2)
        if _separated(list(pt)):
            out.append([float(pt[0]), float(pt[1])])
    return out


def test_criterion_6_elliptic_eigenfunction_residual(capfd):
    t0 = time.perf_counter()
    n, q = (1, 0), 0.2
    quad = QuadratureSpec()
    ctx = ThetaContext.from_q(q)
    points = _residual_points(np.random.default_rng(7))
    sweeps = {}
    # lam = 3/2 runs the non-integer branch of the kernel integrand
    for lam in (2, Fraction(3, 2)):
        worst_by_K = []
        for K in (1, 2, 3):
            psi, pair = eigenfunction_evaluator(n, lam, q, K, 6, quad, tail_tol=10.0)
            energy = float(pair.energy.evaluate(q * q))
            worst = 0.0
            for x in points:
                value = psi(x)
                res = abs(apply_hamiltonian(psi, x, lam, ctx) - energy * value) / abs(value)
                worst = max(worst, res)
            worst_by_K.append(worst)
        assert worst_by_K[2] < 1e-4
        assert worst_by_K[0] > worst_by_K[1] > worst_by_K[2]  # monotone in K
        sweeps[lam] = worst_by_K

    # the bare ground factor stops solving the problem once q > 0
    ctx3 = ThetaContext.from_q(0.3)
    base = Psi0Evaluator(2, ctx3)
    e0 = float(bare_energy((0, 0), 2))
    probe = [[0.9, 2.17], [1.4, 4.0], [5.1, 2.6]]
    off = max(
        abs(apply_hamiltonian(base, x, 2, ctx3) - e0 * base(x)) / abs(base(x))
        for x in probe
    )
    ctx0 = ThetaContext.from_q(0.0)
    base0 = Psi0Evaluator(2, ctx0)
    on = max(
        abs(apply_hamiltonian(base0, x, 2, ctx0) - e0 * base0(x)) / abs(base0(x))
        for x in probe
    )
    assert on < 1e-10  # exact eigenfunction at q=0
    assert off > 1e-2  # visibly broken at q=0.3
    detail = "; ".join(
        f"lam={lam} K=1,2,3 residuals {w[0]:.2e} > {w[1]:.2e} > {w[2]:.2e} < 1e-4"
        for lam, w in sweeps.items()
    )
    _report(
        capfd, 6, "elliptic eigenfunction residual", True,
        f"{detail}; ground factor at q=0.3: {off:.2e} > 1e-2",
        time.perf_counter() - t0, 600.0,
    )


# ---------------------------------------------------------------------------
# 7. Free point: everything collapses.
# ---------------------------------------------------------------------------


def test_criterion_7_free_point_collapse(capfd):
    t0 = time.perf_counter()
    cases = [(2, 0), (3, 1), (5, 2), (2, 1, 0), (4, 1, -2)]
    for n in cases:
        table = alpha_recursive(n, 1, 4)
        assert table.entries == {n: 1}
        assert alpha_explicit(n, 1, 4).entries == {n: 1}
        pair = solve_elliptic(n, 1, 3, 4)
        e0 = bare_energy(n, 1)
        assert pair.energy == QSeries.constant(e0, 3)
        for m, series in pair.coeffs.items():
            want = [1, 0, 0, 0] if m == n else [0, 0, 0, 0]
            assert list(series.coeffs) == want
        assert eigenvalue_implicit(n, 1, 3) == QSeries.constant(e0, 3)
        assert eigenvalue_explicit(n, 1, 3) == QSeries.constant(e0, 3)
    _report(
        capfd, 7, "free-point collapse", True,
        "lam=1: delta tables and constant energy series, exact at every order",
        time.perf_counter() - t0, 60.0,
    )


# ---------------------------------------------------------------------------
# 8. Operator realization on finite sectors.
# ---------------------------------------------------------------------------


def test_criterion_8_fock_suite(capfd):
    t0 = time.perf_counter()
    norms = []
    for charge in (0, 1, 2, 3):
        for level in (4, 6):
            sector = build_sector(charge, level)
            for lam in (Fraction(2), Fraction(3)):
                h0 = op_H0(sector, lam)
                h = op_H(sector, lam)
                h3 = op_H3(sector, lam)
                w3 = op_W3(sector, lam)
                assert is_zero_operator(commutator(h0, h))  # exact
                for op in (w3, h, h3):
                    assert op.is_gram_symmetric()
                    assert op.is_level_preserving()
                if charge == 0:
                    vac = sector.index(())
                    for op in (h, h3):
                        assert all(
                            op.matrix[i][vac] == 0 for i in range(sector.dim)
                        )
                norms.append(
                    (charge, level, lam, frobenius_norm(commutator(h, h3)))
                )
    # generating-functional assembly against the direct constructions
    for charge, level, lam in [
        (0, 4, Fraction(2)),
        (1, 4, Fraction(3)),
        (2, 4, Fraction(2)),
        (3, 6, Fraction(2)),
    ]:
        sector = build_sector(charge, level)
        want = {
            0: None,
            1: op_H0(sector, lam),
            2: op_H(sector, lam),
            3: op_H3(sector, lam),
        }
        for order in range(4):
            built = genfun_operator(order, sector, lam)
            if order == 0:
                assert all(
                    built.matrix[i][j] == (charge if i == j else 0)
                    for i in range(sector.dim)
                    for j in range(sector.dim)
                )
            else:
                # exact rational equality, stronger than the 1e-10 float gate
                assert built.matrix == want[order].matrix
    for lam in (Fraction(1, 2), 1, 2, 3):
        w, _v = genfun_coeffs(lam, 6)
        for s in range(7):
            assert all(c == 0 for c in w[s][:s])  # w_s = O(a^s)
    # conjecture log only: commutation of the two conserved charges is
    # reported, never asserted
    with capfd.disabled():
        for charge, level, lam, value in norms:
            print(
                f"[H, H3] conjecture log c={charge} L={level} lam={lam}:"
                f" frobenius norm {value}"
            )
    biggest = max(value for *_ignored, value in norms)
    _report(
        capfd, 8, "finite sector operator suite", True,
        f"c<=3 L<=6: invariants exact, generating functional exact,"
        f" weight vanishing through s=6; max reported [H, H3] norm {biggest:.1e}",
        time.perf_counter() - t0, 300.0,
    )


# ---------------------------------------------------------------------------
# 9. Special-function self-consistency.
# ---------------------------------------------------------------------------


def test_criterion_9_special_function_consistency(capfd):
    t0 = time.perf_counter()
    rs = [0.35, 0.9, 1.7, 2.6, 3.9, 5.2]
    worst = 0.0
    # h^4 f^(6)/90 truncation ~ 7e-10 at the steepest grid point, roundoff
    # ~ 1e-9; both clear the 1e-8 gate with margin
    h = 1e-3
    for q in (0.0, 0.1, 0.3, 0.6):
        ctx = ThetaContext.from_q(q)
        for r in rs:
            # O(h^4) central stencil for -(log theta)''
            f = lambda t: math.log(float(theta_elliptic(t, ctx)))
            second = (
                -f(r + 2 * h) + 16 * f(r + h) - 30 * f(r)
                + 16 * f(r - h) - f(r - 2 * h)
            ) / (12 * h * h)
            worst = max(worst, abs(float(potential_elliptic(r, ctx)) + second))
    assert worst < 1e-8

    ctx0 = ThetaContext.from_q(0.0)
    for r in rs:
        assert float(theta_elliptic(r, ctx0)) == float(theta_trig(r))
        assert float(potential_elliptic(r, ctx0)) == float(potential_trig(r))
        xi = complex(math.cos(r), math.sin(r))
        assert complex(big_theta(xi, ctx0)) == 1.0 - xi
        assert float(log_theta_derivs(r, ctx0, 2)) == -float(potential_trig(r))
    _report(
        capfd, 9, "special-function self-consistency", True,
        f"potential vs finite-difference -(log theta)'': max dev {worst:.1e}"
        f" < 1e-8; q=0 reductions bitwise exact",
        time.perf_counter() - t0, 60.0,
    )

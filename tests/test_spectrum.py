"""Pseudo-momenta, bare energies, and the positive-shift guarantee."""

import random
from fractions import Fraction

import pytest

from sutherland.errors import AdmissibilityError
from sutherland.spectrum import (
    _scalar,
    apply_moves,
    bare_energy,
    check_admissible,
    coupling,
    energy_gap,
    from_prefix,
    is_admissible,
    prefix_coords,
    pseudo_momenta,
)


# Independent closed forms that the package's own routes are checked against.


def energy_shift(n, mu, lam):
    """Closed form for bare_energy(n + moves) - bare_energy(n).

    mu maps pairs (j, k), 1 <= j < k <= N, to non-negative weights:

        sum_j ( 2 sum_{k>j} mu_{jk} [n_j - n_k + (k-j) lam]
                + [sum_{k<j} mu_{kj} - sum_{k>j} mu_{jk}]^2 ).

    Every summand is positive for admissible n and nonzero mu, which is
    what rules out zero denominators in the series construction.
    """
    lam = _scalar(lam)
    n = tuple(n)
    N = len(n)
    for (j, k), w in mu.items():
        if not 1 <= j < k <= N:
            raise ValueError(f"move indices must satisfy 1 <= j < k <= N, got ({j}, {k})")
        if w < 0:
            raise ValueError(f"move weights must be non-negative, got mu[{(j, k)}] = {w}")
    out = 0 * lam
    for j in range(1, N + 1):
        for k in range(j + 1, N + 1):
            out += 2 * mu.get((j, k), 0) * (n[j - 1] - n[k - 1] + (k - j) * lam)
        net = sum(mu.get((k, j), 0) for k in range(1, j)) - sum(
            mu.get((j, k), 0) for k in range(j + 1, N + 1)
        )
        out += net * net
    return out


def raise_degree(m, n) -> int:
    """sum_j j (n_j - m_j); each two-site transfer raises it by nu*(k-j) >= 1."""
    m, n = tuple(m), tuple(n)
    if len(m) != len(n):
        raise ValueError("length mismatch")
    if sum(m) != sum(n):
        raise ValueError(f"total momentum mismatch: sum{m} != sum{n}")
    return sum((j + 1) * (n[j] - m[j]) for j in range(len(n)))


class TestPseudoMomenta:
    def test_single_particle(self):
        assert pseudo_momenta((0,), 2) == (1,)

    def test_two_particles(self):
        assert pseudo_momenta((1, 0), 2) == (4, 1)

    def test_three_free(self):
        assert pseudo_momenta((0, 0, 0), 1) == (
            Fraction(5, 2),
            Fraction(3, 2),
            Fraction(1, 2),
        )


class TestBareEnergy:
    def test_single_particle_generic(self):
        lam = Fraction(7, 3)
        assert bare_energy((0,), lam) == lam * lam / 4

    def test_frozen_values(self):
        assert bare_energy((1, 0), 2) == 17
        assert bare_energy((2, -1), 2) == 25
        assert bare_energy((1, 1), 2) == 20

    def test_ordering_matters(self):
        assert bare_energy((0, 1), 2) != bare_energy((1, 0), 2)

    def test_ground_closed_form(self):
        for N in range(1, 5):
            for lam in (1, 2, Fraction(1, 2)):
                want = lam * lam * Fraction(N * (4 * N * N - 1), 12)
                assert bare_energy((0,) * N, lam) == want


class TestAdmissibility:
    def test_predicate(self):
        assert is_admissible((3, 1, 1, 0))
        assert not is_admissible((0, 1))
        assert not is_admissible(())

    def test_check_raises(self):
        with pytest.raises(AdmissibilityError):
            check_admissible((0, 1))
        assert check_admissible([2, 0]) == (2, 0)


class TestCoupling:
    def test_values(self):
        assert coupling(1) == 0
        assert coupling(2) == 4
        assert coupling(3) == 12
        assert coupling(Fraction(1, 2)) == Fraction(-1, 2)

    def test_lower_bound(self):
        # gamma = 2 lam (lam - 1) >= -1/2 for lam > 0, minimized at lam = 1/2
        for k in range(1, 60):
            lam = Fraction(k, 20)
            assert coupling(lam) >= Fraction(-1, 2)
        assert coupling(Fraction(1, 2)) == Fraction(-1, 2)


class TestMovesAndShift:
    def test_frozen_example(self):
        assert energy_shift((1, 0), {(1, 2): 1}, 2) == 8

    def test_zero_moves(self):
        assert energy_shift((3, 1, 0), {}, 2) == 0

    def test_moves_preserve_total(self):
        m = apply_moves((2, 1, 0), {(1, 2): 2, (1, 3): 1, (2, 3): 3})
        assert sum(m) == 3
        assert m == (2 + 3, 1 + 1, 0 - 4)

    def test_bad_move_indices(self):
        with pytest.raises(ValueError):
            apply_moves((1, 0), {(2, 1): 1})
        with pytest.raises(ValueError):
            energy_shift((1, 0), {(1, 2): -1}, 2)

    def test_matches_direct_difference_exact(self):
        rng = random.Random(7)
        for _ in range(300):
            N = rng.randint(2, 4)
            n = tuple(
                sorted((rng.randint(-3, 5) for _ in range(N)), reverse=True)
            )
            mu = {}
            for j in range(1, N + 1):
                for k in range(j + 1, N + 1):
                    if rng.random() < 0.6:
                        mu[(j, k)] = rng.randint(0, 3)
            lam = rng.choice([1, 2, 3, Fraction(1, 2), Fraction(17, 10)])
            m = apply_moves(n, mu)
            assert energy_shift(n, mu, lam) == energy_gap(m, n, lam)

    def test_matches_direct_difference_float(self):
        rng = random.Random(11)
        for _ in range(100):
            n = tuple(sorted((rng.randint(-2, 4) for _ in range(3)), reverse=True))
            mu = {(1, 2): rng.randint(0, 2), (1, 3): rng.randint(0, 2), (2, 3): rng.randint(0, 2)}
            got = energy_shift(n, mu, 1.7)
            m = apply_moves(n, mu)
            want = bare_energy(m, 1.7) - bare_energy(n, 1.7)
            assert got == pytest.approx(want, abs=1e-10)

    def test_positive_on_admissible(self):
        rng = random.Random(23)
        for _ in range(300):
            N = rng.randint(2, 4)
            n = tuple(sorted((rng.randint(-3, 6) for _ in range(N)), reverse=True))
            mu = {}
            while not any(mu.values()):
                mu = {
                    (j, k): rng.randint(0, 2)
                    for j in range(1, N + 1)
                    for k in range(j + 1, N + 1)
                }
            lam = rng.choice([Fraction(1, 2), 1, 2, 3, Fraction(9, 4)])
            assert energy_shift(n, mu, lam) > 0


class TestGrading:
    def test_raise_degree_equals_weighted_moves(self):
        rng = random.Random(5)
        for _ in range(200):
            N = rng.randint(2, 4)
            n = tuple(sorted((rng.randint(-2, 4) for _ in range(N)), reverse=True))
            mu = {
                (j, k): rng.randint(0, 3)
                for j in range(1, N + 1)
                for k in range(j + 1, N + 1)
            }
            m = apply_moves(n, mu)
            want = sum(nu * (k - j) for (j, k), nu in mu.items())
            assert raise_degree(m, n) == want
            # and the prefix coordinates recover m
            P = prefix_coords(m, n)
            assert all(p >= 0 for p in P)
            assert from_prefix(P, n) == m
            assert sum(P) == want

    def test_total_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            raise_degree((1, 0), (0, 0))

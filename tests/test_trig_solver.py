"""Trigonometric coefficient tables and the brute-force oracle."""

import random
from fractions import Fraction

import pytest

from sutherland.errors import AdmissibilityError
from sutherland.spectrum import bare_energy
from sutherland.trig_solver import (
    alpha_explicit,
    alpha_recursive,
    oracle_diagonalize,
)


def random_admissible(rng, N, lo=-3, hi=5):
    return tuple(sorted((rng.randint(lo, hi) for _ in range(N)), reverse=True))


class TestRecursive:
    def test_base_normalization(self):
        t = alpha_recursive((1, 0), 2, 3)
        assert t[(1, 0)] == 1

    def test_free_point_is_delta(self):
        t = alpha_recursive((4, 2, 0), 1, 4)
        assert t.entries == {(4, 2, 0): 1}

    def test_frozen_first_order(self):
        # gamma * nu / gap = 4 / 8
        t = alpha_recursive((1, 0), 2, 1)
        assert t[(2, -1)] == Fraction(1, 2)

    def test_frozen_ladder_values(self):
        # N=2, lam=2: alpha is 1/2 on the whole ladder above (1,0),
        # and 2/5 above (2,0) (gaps 2d(d+3) and 2d(d+4))
        t = alpha_recursive((1, 0), 2, 4)
        for d in range(1, 5):
            assert t[(1 + d, -d)] == Fraction(1, 2)
        t2 = alpha_recursive((2, 0), 2, 3)
        for d in range(1, 4):
            assert t2[(2 + d, -d)] == Fraction(2, 5)

    def test_support_lies_in_cone(self):
        t = alpha_recursive((2, 1, 0), 2, 3)
        for m in t.support():
            assert sum(m) == 3
            acc = 0
            for a, b in zip(m, (2, 1, 0)):
                acc += a - b
                assert acc >= 0

    def test_rejects_non_admissible(self):
        with pytest.raises(AdmissibilityError):
            alpha_recursive((0, 1), 2, 2)

    def test_rejects_non_positive_coupling_parameter(self):
        with pytest.raises(AdmissibilityError):
            alpha_recursive((1, 0), 0, 2)

    def test_exactness(self):
        t = alpha_recursive((3, 1, 0), Fraction(5, 2), 3)
        assert all(isinstance(c, Fraction) for c in t.entries.values())


class TestExplicit:
    def test_free_point(self):
        t = alpha_explicit((2, 0), 1, 3)
        assert t.entries == {(2, 0): 1}

    def test_matches_recursive_exactly(self):
        rng = random.Random(101)
        lams = [Fraction(1, 2), 1, 2, 3]
        for _ in range(16):
            N = rng.randint(2, 3)
            n = random_admissible(rng, N)
            lam = rng.choice(lams)
            budget = rng.randint(1, 4)
            a = alpha_recursive(n, lam, budget)
            b = alpha_explicit(n, lam, budget)
            assert a == b

    def test_budget_grading_monotone(self):
        # the small-budget table is the restriction of the larger one
        small = alpha_recursive((2, 1, 0), 2, 2)
        large = alpha_recursive((2, 1, 0), 2, 4)
        for m, c in small.entries.items():
            assert large[m] == c


class TestOracle:
    def test_frozen_two_particle_eigenvalues(self):
        spec = [ev for ev, _ in oracle_diagonalize(2, 2, 4)]
        assert 17 in spec  # label (1, 0)
        assert 20 in spec  # label (1, 1)

    def test_spectrum_matches_bare_energy_multiset(self):
        for N, lam in [(2, 1), (2, 2), (3, 2), (3, Fraction(1, 2))]:
            out = oracle_diagonalize(N, lam, 3)
            leads = [_lead(vec) for _, vec in out]
            assert len(set(leads)) == len(leads)  # one eigenvector per label
            assert sorted(ev for ev, _ in out) == sorted(
                bare_energy(mu, lam) for mu in leads
            )
            for ev, vec in out:
                assert ev == bare_energy(_lead(vec), lam)
                assert vec[_lead(vec)] == 1

    def test_free_fermion_spectrum(self):
        # the conjugated operator keeps lam-weighted (not gamma-weighted)
        # interaction terms at lam = 1, so eigenvectors are Schur-like with
        # nonnegative integer coefficients; the spectrum is still free.
        out = oracle_diagonalize(3, 1, 2)
        for ev, vec in out:
            assert ev == bare_energy(_lead(vec), 1)
            for c in vec.values():
                assert c == int(c) and c >= 0

    def test_single_particle(self):
        out = oracle_diagonalize(1, 2, 3)
        want = sorted((n + 1) ** 2 for n in range(-3, 4))
        assert sorted(ev for ev, _ in out) == want

    def test_frozen_jack_coefficient(self):
        # eigenvector above (2,0) at lam=2: known symmetric-polynomial
        # expansion m_(2,0) + 4/3 m_(1,1)
        out = {ev: vec for ev, vec in oracle_diagonalize(2, 2, 3)}
        vec = out[bare_energy((2, 0), 2)]
        assert vec[(2, 0)] == 1
        assert vec[(1, 1)] == Fraction(4, 3)

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError):
            oracle_diagonalize(4, 2, 12)


def _lead(vec):
    """Dominance-largest label: the one the eigenvector is normalized on."""

    def prefix(mu):
        acc, key = 0, []
        for v in mu[:-1]:
            acc += v
            key.append(acc)
        return tuple(key)

    return max(vec, key=prefix)

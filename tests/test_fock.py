"""Fock-sector operator tests.

Every expected number here was either computed by hand from the mode
algebra (matrix elements, Gram norms, level-0 scalars) or cross-checked
between the two independent construction routes before being frozen.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from sutherland.fock import (
    Quad,
    build_sector,
    commutator,
    compose,
    frobenius_norm,
    genfun_coeffs,
    genfun_operator,
    is_zero_operator,
    op_C,
    op_H,
    op_H0,
    op_H3,
    op_W3,
)
from sutherland.spectrum import bare_energy

F = Fraction


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def test_quad_folds_perfect_squares():
    assert Quad(0, 1, 4) == 2
    assert Quad(1, 1, 9) == 4
    assert Quad(0, 1, F(9, 4)) == F(3, 2)


def test_quad_arithmetic():
    x = Quad(1, 1, 2)  # 1 + sqrt(2)
    sq = x * x
    assert sq == Quad(3, 2, 2)
    assert x + x == Quad(2, 2, 2)
    assert float(x) == pytest.approx(1 + math.sqrt(2))
    with pytest.raises(ValueError):
        x + Quad(1, 1, 3)


# ---------------------------------------------------------------------------
# sectors
# ---------------------------------------------------------------------------


def test_sector_basis_is_level_graded():
    s = build_sector(0, 3)
    assert s.basis == ((), (1,), (1, 1), (2,), (1, 1, 1), (2, 1), (3,))
    dims = [sum(1 for mu in s.basis if sum(mu) == lv) for lv in range(4)]
    assert dims == [1, 1, 2, 3]  # partition numbers


def test_gram_norms():
    s = build_sector(0, 3)
    assert s.inner_products[s.index((2, 1))] == 2
    assert s.inner_products[s.index((1, 1, 1))] == 6
    assert s.inner_products[s.index((3,))] == 3
    assert s.inner_products[s.index(())] == 1


def test_level_cap_enforced():
    with pytest.raises(ValueError):
        build_sector(0, 13)


# ---------------------------------------------------------------------------
# quadratic operators
# ---------------------------------------------------------------------------


def test_H0_is_charge_and_level_diagonal():
    s = build_sector(0, 2)
    h = op_H0(s, 1)
    assert h.entry((1,), (1,)) == 1
    s1 = build_sector(1, 0)
    assert op_H0(s1, 2).entry((), ()) == 1
    s2 = build_sector(2, 2)
    h = op_H0(s2, 3)
    assert h.entry((2,), (2,)) == 8
    assert h.entry((1, 1), (1, 1)) == 8
    assert all(
        h.matrix[i][j] == 0 for i in range(s2.dim) for j in range(s2.dim) if i != j
    )


def test_C_counts_squared_parts():
    s = build_sector(0, 3)
    c = op_C(s)
    assert c.entry((2, 1), (2, 1)) == 5
    assert c.entry((1, 1, 1), (1, 1, 1)) == 3
    assert c.entry((3,), (3,)) == 9


def test_C_commutes_with_H0():
    s = build_sector(2, 3)
    assert is_zero_operator(commutator(op_C(s, 2), op_H0(s, 2)))


# ---------------------------------------------------------------------------
# cubic operator
# ---------------------------------------------------------------------------


def test_W3_frozen_matrix_elements():
    # rho(-1) rho(-2) rho(3) appears with multiplicity 6 of its orderings
    # and a prefactor 1/3; acting on rho(-3) Omega the contraction gives 3.
    s = build_sector(0, 3)
    w = op_W3(s, 2)
    assert w.entry((2, 1), (3,)) == 6
    assert w.entry((3,), (2, 1)) == 4
    # both Gram-weighted elements equal 12
    assert s.inner_products[s.index((2, 1))] * 6 == 12
    assert s.inner_products[s.index((3,))] * 4 == 12


def test_W3_structure():
    s = build_sector(0, 3)
    w = op_W3(s, 3)
    assert w.is_level_preserving()
    assert w.is_gram_symmetric()
    # W3 annihilates the chargeless vacuum
    col = [w.matrix[i][s.index(())] for i in range(s.dim)]
    assert all(x == 0 for x in col)


# ---------------------------------------------------------------------------
# the collective Hamiltonian
# ---------------------------------------------------------------------------


def test_H_annihilates_chargeless_vacuum():
    for lam in (1, 2, 3):
        s = build_sector(0, 3)
        h = op_H(s, lam)
        col = [h.matrix[i][s.index(())] for i in range(s.dim)]
        assert all(x == 0 for x in col)


def test_H_frozen_spectrum_charge_two():
    s = build_sector(2, 2)
    h = op_H(s, 2)
    assert h.entry((), ()) == 10
    assert h.entry((1,), (1,)) == 17
    # level-2 block has integer eigenvalues {20, 26}: check via trace/det
    a = h.entry((1, 1), (1, 1))
    b = h.entry((1, 1), (2,))
    c = h.entry((2,), (1, 1))
    d = h.entry((2,), (2,))
    trace = a + d
    det = a * d - b * c
    assert trace == 46
    assert det == 520


def test_H_structure():
    for lam in (2, 3):
        s = build_sector(3, 4)
        h = op_H(s, lam)
        assert h.is_level_preserving()
        assert h.is_gram_symmetric()


def test_H0_commutes_with_H_exactly():
    for c, lam in ((2, 2), (3, 3)):
        s = build_sector(c, 4)
        assert is_zero_operator(commutator(op_H0(s, lam), op_H(s, lam)))


def _level_eigs(s, op):
    m = np.array([[float(x) for x in row] for row in op.matrix])
    out = {}
    for lv in range(s.max_level + 1):
        idx = [i for i in range(s.dim) if s.level(i) == lv]
        g = np.diag([math.sqrt(float(s.inner_products[i])) for i in idx])
        sub = g @ m[np.ix_(idx, idx)] @ np.linalg.inv(g)
        out[lv] = sorted(np.linalg.eigvalsh((sub + sub.T) / 2))
    return out


def _partitions_at_most(total, maxlen):
    def rec(rest, cap, acc):
        if rest == 0:
            yield tuple(acc + [0] * (maxlen - len(acc)))
            return
        if len(acc) == maxlen:
            return
        for p in range(min(rest, cap), 0, -1):
            yield from rec(rest - p, p, acc + [p])

    yield from rec(total, total if total else 1, [])


def test_H_spectrum_contains_particle_energies():
    """Each level-l block at charge c contains every N = c particle energy
    for labels that are partitions of l; extra eigenvalues belong to longer
    partitions and fall outside the c-particle correspondence."""
    for c in (1, 2):
        for lam in (1, 2):
            s = build_sector(c, 4)
            eigs = _level_eigs(s, op_H(s, lam))
            for lv in range(5):
                got = eigs[lv]
                for n in _partitions_at_most(lv, c):
                    e = float(bare_energy(n, lam))
                    assert any(abs(e - x) < 1e-9 for x in got), (c, lam, lv, n)


def test_H_level0_calibration_residual():
    """The zero-mode ordering is calibrated so the level-0 eigenvalue equals
    the constant-label particle energy at lam = 1 and 2 with no offset.  At
    other couplings the raw value exceeds it by c (lam-1)(lam-2)/12; this
    residual is a known open question and is pinned here, not hidden."""
    for lam in (1, 2, 3, 4):
        for c in (1, 2, 3):
            s = build_sector(c, 0)
            raw = op_H(s, lam).entry((), ())
            assert raw.r == 0
            egs = F(lam * lam * c * (4 * c * c - 1), 12)
            assert raw.p - egs == F(c * (lam - 1) * (lam - 2), 12)


# ---------------------------------------------------------------------------
# the third-order operator
# ---------------------------------------------------------------------------


def test_H3_level0_values():
    # hand value: lam^3 c^4 / 4 - (3 lam - 2) lam c^2 / 8 at level 0;
    # for c = 1 it reduces to the cube of the single pseudo-momentum
    # lam/2 when lam is 1 or 2.
    for lam in (1, 2):
        s = build_sector(1, 0)
        assert op_H3(s, lam).entry((), ()) == F(lam, 2) ** 3
    s = build_sector(1, 0)
    assert op_H3(s, 3).entry((), ()) == F(33, 8)


def test_H3_structure():
    for lam in (2, 3):
        s = build_sector(2, 4)
        h3 = op_H3(s, lam)
        assert h3.is_level_preserving()
        assert h3.is_gram_symmetric()


def test_H3_annihilates_chargeless_vacuum():
    s = build_sector(0, 3)
    h3 = op_H3(s, 2)
    col = [h3.matrix[i][s.index(())] for i in range(s.dim)]
    assert all(x == 0 for x in col)


def test_commutator_conjecture_logged(capsys):
    """[H, H3] = 0 is conjectural; the norm is reported, not asserted."""
    norms = []
    for c, lam, L in ((2, 2, 4), (1, 3, 4), (3, 3, 4), (0, 2, 5)):
        s = build_sector(c, L)
        comm = commutator(op_H(s, lam), op_H3(s, lam))
        norms.append(((c, lam, L), frobenius_norm(comm)))
    with capsys.disabled():
        print()
        for key, norm in norms:
            print(f"  [H, H3] conjecture log c,lam,L={key}: frobenius norm {norm:.3e}")


# ---------------------------------------------------------------------------
# generating functional
# ---------------------------------------------------------------------------


def test_genfun_weights_vanish_to_stated_order():
    for lam in (1, 2, 3, F(1, 2)):
        w, v = genfun_coeffs(lam, 8)
        for s in range(7):
            assert all(w[s][t] == 0 for t in range(s)), (lam, s)
        for k in range(9):
            assert all(v[k][t] == 0 for t in range(k)), (lam, k)


def test_genfun_weight_frozen_series():
    # v_0 = 2 sin(lam a / 2) / (2 lam cos(a/2)^lam tan(a/2)) collapses to 1
    # at lam = 1, 2 and equals 1 - tan(a/2)^2 / 3 at lam = 3.
    for lam in (1, 2):
        _, v = genfun_coeffs(lam, 8)
        assert v[0] == [1] + [0] * 8
    _, v = genfun_coeffs(3, 8)
    assert v[0][:5] == [1, 0, F(-1, 12), 0, F(-1, 72)]
    # leading weight of w_1 is (lam - 1)/2 a
    for lam in (2, 3, F(1, 2)):
        w, _ = genfun_coeffs(lam, 4)
        assert w[1][1] == F(lam - 1, 2)


def test_genfun_degree_cap():
    with pytest.raises(ValueError):
        genfun_coeffs(2, 9)


# perfect-square and fractional couplings exercise Quad folding and the
# sqrt(lam) parity bookkeeping of the generating functional
@pytest.mark.parametrize("c", [-1, 0, 1, 2])
@pytest.mark.parametrize(
    "lam", [1, 2, 3, F(1, 2), F(9, 4), 4], ids=lambda lam: str(lam).replace("/", "_")
)
def test_genfun_reproduces_all_four_operators(c, lam):
    s = build_sector(c, 3)
    assert all(
        genfun_operator(0, s, lam).matrix[i][j] == (c if i == j else 0)
        for i in range(s.dim)
        for j in range(s.dim)
    )
    assert genfun_operator(1, s, lam).matrix == op_H0(s, lam).matrix
    assert genfun_operator(2, s, lam).matrix == op_H(s, lam).matrix
    assert genfun_operator(3, s, lam).matrix == op_H3(s, lam).matrix


def test_genfun_reproduces_operators_at_scale():
    s = build_sector(3, 5)
    assert genfun_operator(2, s, 3).matrix == op_H(s, 3).matrix
    assert genfun_operator(3, s, 3).matrix == op_H3(s, 3).matrix


def test_genfun_order_cap():
    s = build_sector(0, 2)
    with pytest.raises(ValueError):
        genfun_operator(4, s, 2)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_compose_respects_level_shift_bookkeeping():
    s = build_sector(1, 3)
    h0 = op_H0(s, 2)
    prod = compose(h0, h0)
    assert prod.is_level_preserving()
    assert prod.entry((2,), (2,)) == 9  # (1 + 2)^2


def test_frobenius_norm_of_zero():
    s = build_sector(1, 2)
    z = commutator(op_H0(s, 2), op_C(s, 2))
    assert frobenius_norm(z) == 0.0

"""Eigen-coefficients and eigenfunctions of the trigonometric model.

The interacting eigenstate labelled by an admissible momentum vector n
is a finite combination sum_m alpha_n(m) * hatF(x, m) of free-mode
kernels.  The coefficients solve a triangular linear recursion

    [E0(m) - E0(n)] alpha_n(m) = gamma sum_{j<k} sum_{nu>=1} nu * alpha_n(m - nu E_jk),

with alpha_n(n) = 1, where E_jk = e_j - e_k and E0 is the bare energy.
The support lies in the cone m = n + sum mu_jk E_jk, mu_jk >= 0, graded
by the raise degree sum mu_jk (k - j); every single hop strictly
increases the grade, so truncating at a raise budget makes everything
finite and the recursion solvable by induction.  The same coefficients
are also given by an explicit sum over hop paths, and the whole
construction is validated against a brute-force diagonalization of the
conjugated Hamiltonian acting on symmetric Laurent polynomials.

Coefficient arithmetic is exact (Fraction) whenever lambda is rational;
floats enter only when eigenfunctions are evaluated at points.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AdmissibilityError
from .spectrum import (
    _scalar,
    bare_energy,
    check_admissible,
    coupling,
    energy_gap,
    from_prefix,
)

__all__ = [
    "CoefficientTable",
    "alpha_recursive",
    "alpha_explicit",
    "eigenfunction_trig",
    "oracle_diagonalize",
]


class CoefficientTable:
    """Finite map m -> alpha_n(m) over the raise-truncated cone above n."""

    __slots__ = ("base", "lam", "budget", "entries")

    def __init__(self, base, lam, budget, entries):
        if entries.get(tuple(base)) != 1:
            raise ValueError("table must carry alpha(base) = 1")
        self.base = tuple(base)
        self.lam = lam
        self.budget = budget
        self.entries = entries

    def __getitem__(self, m):
        return self.entries.get(tuple(m), 0)

    def support(self):
        """Keys sorted by (raise degree, lexicographic)."""
        n = self.base
        return sorted(
            self.entries,
            key=lambda m: (sum(j * (n[j - 1] - m[j - 1]) for j in range(1, len(n) + 1)), m),
        )

    def __eq__(self, other):
        if not isinstance(other, CoefficientTable):
            return NotImplemented
        return (
            self.base == other.base
            and self.lam == other.lam
            and self.entries == other.entries
        )

    def __repr__(self):
        return (
            f"CoefficientTable(base={self.base}, lam={self.lam}, "
            f"budget={self.budget}, {len(self.entries)} entries)"
        )


def _prefix_vectors(dims: int, total_budget: int):
    """All nonnegative integer vectors of length dims with sum <= total_budget."""
    if dims == 0:
        yield ()
        return
    for head in range(total_budget + 1):
        for tail in _prefix_vectors(dims - 1, total_budget - head):
            yield (head,) + tail


def alpha_recursive(n, lam, budget: int) -> CoefficientTable:
    """Solve the coefficient recursion by induction on the raise degree.

    Visits every cone point with raise <= budget exactly once, in
    increasing raise order, so each right-hand side only involves
    already-computed entries.
    """
    n = check_admissible(n)
    N = len(n)
    lam = _scalar(lam)
    if not lam > 0:
        raise AdmissibilityError(f"coupling parameter must be positive, got {lam}")
    gamma = coupling(lam)
    one = Fraction(1) if isinstance(lam, Fraction) else 1.0

    by_raise: dict[int, list[tuple]] = {}
    for P in _prefix_vectors(N - 1, budget):
        by_raise.setdefault(sum(P), []).append(P)

    entries: dict[tuple, object] = {n: one}
    for r in range(1, budget + 1):
        for P in sorted(by_raise.get(r, ())):
            m = from_prefix(P, n)
            rhs = 0
            for j in range(1, N):
                for k in range(j + 1, N + 1):
                    # hop back by nu E_jk: lowers P_t by nu on t in [j, k-1]
                    nu_max = min(P[t - 1] for t in range(j, k))
                    for nu in range(1, nu_max + 1):
                        Pprev = tuple(
                            P[t - 1] - (nu if j <= t < k else 0) for t in range(1, N)
                        )
                        prev = entries.get(from_prefix(Pprev, n))
                        if prev:
                            rhs += nu * prev
            if rhs:
                D = energy_gap(m, n, lam)
                assert D != 0, "energy denominator vanished on the cone"
                entries[m] = gamma * rhs / D
    entries = {m: c for m, c in entries.items() if c != 0}
    return CoefficientTable(base=n, lam=lam, budget=budget, entries=entries)


def alpha_explicit(n, lam, budget: int) -> CoefficientTable:
    """Evaluate the explicit hop-path sum for the same coefficients.

    alpha_n(m) = delta_{mn} + sum over paths of s positive hops (j, k, nu)
    leading from n to m within the raise budget, each path weighing
    gamma^s * prod(nu_r) / prod(partial energy gaps).  Every hop raises
    the grade by at least one, so the budget bounds the path length.
    """
    n = check_admissible(n)
    N = len(n)
    lam = _scalar(lam)
    if not lam > 0:
        raise AdmissibilityError(f"coupling parameter must be positive, got {lam}")
    gamma = coupling(lam)
    one = Fraction(1) if isinstance(lam, Fraction) else 1.0

    entries: dict[tuple, object] = {n: one}

    def walk(P, r, weight):
        for j in range(1, N):
            for k in range(j + 1, N + 1):
                span = k - j
                nu = 1
                while r + nu * span <= budget:
                    Pnew = tuple(
                        P[t - 1] + (nu if j <= t < k else 0) for t in range(1, N)
                    )
                    m = from_prefix(Pnew, n)
                    w = weight * gamma * nu / energy_gap(m, n, lam)
                    entries[m] = entries.get(m, 0) + w
                    walk(Pnew, r + nu * span, w)
                    nu += 1

    walk((0,) * (N - 1), 0, one)
    entries = {m: c for m, c in entries.items() if c != 0}
    return CoefficientTable(base=n, lam=lam, budget=budget, entries=entries)


def eigenfunction_trig(x, n, lam, budget: int, quad) -> complex:
    """Evaluate the interacting eigenstate sum_m alpha_n(m) hatF(x, m).

    The paired eigenvalue is bare_energy(n, lam); normalization is
    alpha_n(n) = 1, never unit L2 norm.
    """
    from .correlation import kernel_batch, psi0
    from .theta import ThetaContext

    table = alpha_recursive(n, lam, budget)
    ctx = ThetaContext.from_q(0.0)
    labels = table.support()
    kernels = kernel_batch(x, labels, lam, ctx, quad)
    acc = 0j
    for m in labels:
        acc += complex(table.entries[m]) * kernels[m]
    return acc * psi0(x, lam, ctx)


# ---------------------------------------------------------------------------
# Brute-force oracle: conjugated Hamiltonian on symmetric Laurent monomials.
# ---------------------------------------------------------------------------

_ORACLE_DIM_CAP = 3000


def _monomial_basis(N: int, degree: int) -> list[tuple]:
    """Weakly decreasing integer N-vectors with entries in [-degree, degree]."""
    out = []

    def rec(prefix, lo):
        if len(prefix) == N:
            out.append(tuple(prefix))
            return
        for v in range(-degree, lo + 1):
            rec(prefix + [v], v)

    rec([], degree)
    return out


def _pair_action(alpha: tuple, lam) -> dict[tuple, object]:
    """Apply the interaction part to the distinct-permutation sum of alpha.

    For each position pair with exponents a > b the symmetrized pair of
    monomials maps to

        lam (a-b) [ z^alpha + z^swapped + 2 sum_{s=1}^{a-b-1} z^(a-s, b+s) ],

    a finite list because the difference quotient is a polynomial.
    Returns the total as a map from monomials to coefficients.
    """
    N = len(alpha)
    out: dict[tuple, object] = {}

    def add(mono, c):
        out[mono] = out.get(mono, 0) + c

    seen = set()

    def perms(rem, prefix):
        if not rem:
            mono = tuple(prefix)
            if mono not in seen:
                seen.add(mono)
                for j in range(N):
                    for k in range(j + 1, N):
                        a, b = mono[j], mono[k]
                        if a <= b:
                            continue
                        c = lam * (a - b)
                        add(mono, c)
                        swapped = list(mono)
                        swapped[j], swapped[k] = b, a
                        add(tuple(swapped), c)
                        for s in range(1, a - b):
                            mid = list(mono)
                            mid[j], mid[k] = a - s, b + s
                            add(tuple(mid), 2 * c)
            return
        for i, v in enumerate(rem):
            perms(rem[:i] + rem[i + 1 :], prefix + [v])

    perms(list(alpha), [])
    return out


def _dominates(hi: tuple, lo: tuple) -> bool:
    """Prefix-sum comparison of equal-sum decreasing vectors."""
    acc = 0
    for a, b in zip(hi, lo):
        acc += a - b
        if acc < 0:
            return False
    return acc == 0


def oracle_diagonalize(N: int, lam, degree: int):
    """Brute-force reference spectrum on bounded symmetric Laurent monomials.

    Conjugating the Hamiltonian by the ground factor gives

        E_gs + sum_j (z_j d_j)^2 + N lam sum_j z_j d_j
             + lam sum_{j<k} (z_j + z_k)/(z_j - z_k) (z_j d_j - z_k d_k),

    which preserves total degree and is triangular with respect to the
    dominance order on monomial labels (verified structurally, not
    assumed).  Returns [(eigenvalue, {label: coefficient})] in basis
    order, eigenvectors normalized to 1 on their leading label.
    """
    if N < 1:
        raise ValueError("need at least one particle")
    lam = _scalar(lam)
    basis = _monomial_basis(N, degree)
    if len(basis) > _ORACLE_DIM_CAP:
        raise ValueError(
            f"basis dimension {len(basis)} exceeds desk scale {_ORACLE_DIM_CAP}"
        )
    # linear extension of dominance: grade by total, then by prefix tuple
    basis.sort(key=lambda mu: (sum(mu), tuple(_prefix_key(mu))))
    index = {mu: i for i, mu in enumerate(basis)}

    diag = [bare_energy(mu, lam) for mu in basis]
    columns: list[dict[tuple, object]] = []
    for mu in basis:
        # The output is symmetric, so its coordinates in the symmetric-monomial
        # basis are read off at the decreasing representatives alone.
        col: dict[tuple, object] = {}
        for mono, c in _pair_action(mu, lam).items():
            if all(mono[t] >= mono[t + 1] for t in range(len(mono) - 1)):
                col[mono] = col.get(mono, 0) + c
        # collect on decreasing representatives; verify triangularity and
        # that the diagonal reproduces the bare energy
        clean: dict[tuple, object] = {}
        for label, c in col.items():
            if c == 0:
                continue
            if label == mu:
                continue  # handled via diag below
            assert sum(label) == sum(mu), "interaction changed the total degree"
            assert _dominates(mu, label) and label != mu, (
                "off-diagonal entry outside the dominance cone"
            )
            clean[label] = c
        interaction_diag = col.get(mu, 0)
        free_diag = sum(v * v for v in mu) + N * lam * sum(mu) + _ground_energy(N, lam)
        expect = diag[index[mu]]
        assert free_diag + interaction_diag == expect or (
            not isinstance(lam, Fraction)
            and abs(free_diag + interaction_diag - expect) < 1e-9
        ), "diagonal does not reproduce the bare energy"
        columns.append(clean)

    results = []
    for i, mu in enumerate(basis):
        E = diag[i]
        vec: dict[tuple, object] = {mu: Fraction(1) if isinstance(lam, Fraction) else 1.0}
        # back-substitute over strictly dominated labels of the same total
        for j in range(i - 1, -1, -1):
            nu = basis[j]
            if sum(nu) != sum(mu) or not _dominates(mu, nu):
                continue
            rhs = 0
            for src, v in vec.items():
                c = columns[index[src]].get(nu)
                if c:
                    rhs += c * v
            if rhs:
                vec[nu] = rhs / (E - diag[j])
        results.append((E, vec))
    return results


def _prefix_key(mu: tuple):
    acc = 0
    key = []
    for v in mu[:-1]:
        acc += v
        key.append(acc)
    return key


def _ground_energy(N: int, lam):
    """Bare energy of the zero vector: lam^2 N (4N^2 - 1)/12."""
    if isinstance(lam, Fraction):
        return lam * lam * Fraction(N * (4 * N * N - 1), 12)
    return lam * lam * N * (4 * N * N - 1) / 12.0

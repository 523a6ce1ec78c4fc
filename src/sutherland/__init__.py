"""Eigenvalues and eigenfunctions of the trigonometric and elliptic
quantum many-body systems with inverse-square-type interactions, plus a
finite free-field operator realization used to cross-check them.

The solvers all take an admissible momentum label n (non-increasing
integers), a rational coupling lam, and truncation controls; everything
downstream of the exact series is plain numpy.
"""
from .errors import (
    AdmissibilityError,
    BranchCutError,
    ConvergenceError,
    ResonanceError,
    SingularityError,
    SutherlandError,
)
from .theta import (
    ThetaContext,
    big_theta,
    log_theta_derivs,
    potential_elliptic,
    potential_trig,
    theta_elliptic,
    theta_trig,
)
from .qseries import QSeries, S_coeff
from .spectrum import (
    apply_moves,
    bare_energy,
    check_admissible,
    coupling,
    energy_gap,
    is_admissible,
    pseudo_momenta,
)
from .trig_solver import (
    CoefficientTable,
    alpha_explicit,
    alpha_recursive,
    eigenfunction_trig,
    oracle_diagonalize,
)
from .correlation import (
    Psi0Evaluator,
    QuadratureSpec,
    SeriesEvaluator,
    apply_hamiltonian,
    cP_kernel,
    functional_identity_residual,
    kernel_batch,
)
from .elliptic_solver import (
    EllipticEigenpair,
    eigenfunction_evaluator,
    eigenvalue_explicit,
    eigenvalue_implicit,
    solve_elliptic,
)
from .fock import (
    FockSector,
    Quad,
    SectorOperator,
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
from .cli import RunConfig, run

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "BranchCutError",
    "ConvergenceError",
    "ResonanceError",
    "SingularityError",
    "SutherlandError",
    "ThetaContext",
    "big_theta",
    "log_theta_derivs",
    "potential_elliptic",
    "potential_trig",
    "theta_elliptic",
    "theta_trig",
    "QSeries",
    "S_coeff",
    "apply_moves",
    "bare_energy",
    "check_admissible",
    "coupling",
    "energy_gap",
    "is_admissible",
    "pseudo_momenta",
    "CoefficientTable",
    "alpha_explicit",
    "alpha_recursive",
    "eigenfunction_trig",
    "oracle_diagonalize",
    "Psi0Evaluator",
    "QuadratureSpec",
    "SeriesEvaluator",
    "apply_hamiltonian",
    "cP_kernel",
    "functional_identity_residual",
    "kernel_batch",
    "EllipticEigenpair",
    "eigenfunction_evaluator",
    "eigenvalue_explicit",
    "eigenvalue_implicit",
    "solve_elliptic",
    "FockSector",
    "Quad",
    "SectorOperator",
    "build_sector",
    "commutator",
    "compose",
    "frobenius_norm",
    "genfun_coeffs",
    "genfun_operator",
    "is_zero_operator",
    "op_C",
    "op_H",
    "op_H0",
    "op_H3",
    "op_W3",
    "RunConfig",
    "run",
]

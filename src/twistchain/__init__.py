"""Numerical workbench for a twisted spin-1/2 chain with broken magnon
number, built around the modified algebraic Bethe ansatz.

Everything is desk scale: dense operators on the full product space, so
identities can be checked against direct matrix algebra rather than
trusted.  The intended entry points are the spectral context plus the
solver and overlap layers; the lower modules stay importable for tests.
"""

from .bethe import (
    CoincidenceError,
    SpectralContext,
    VariableSet,
    bethe_residuals,
    eigenvalue_gradient,
    transfer_eigenvalue,
)
from .chain import ChainParams, build_hamiltonian, build_monodromy, build_transfer, structure_checks
from .linalg import ConvergenceError, MatrixPolynomial, eigenpairs, eigenvalues
from .overlaps import (
    OffShellError,
    OverlapReport,
    classical_slavnov,
    gaudin_matrix,
    gaudin_norm,
    norm_report,
    overlap_report,
    slavnov_formula,
)
from .solver import (
    BetheSolution,
    classify_solutions,
    solve_newton,
    solve_tq_fit,
    spectrum_match,
)
from .states import build_bethe_vector, build_dual_vector, w0
from .twist import (
    TwistDegeneracyError,
    TwistFactorization,
    TwistParams,
    build_modified_operators,
    factorize_twist,
)

__all__ = [
    "BetheSolution",
    "ChainParams",
    "CoincidenceError",
    "ConvergenceError",
    "MatrixPolynomial",
    "OffShellError",
    "OverlapReport",
    "SpectralContext",
    "TwistDegeneracyError",
    "TwistFactorization",
    "TwistParams",
    "VariableSet",
    "bethe_residuals",
    "build_bethe_vector",
    "build_dual_vector",
    "build_hamiltonian",
    "build_modified_operators",
    "build_monodromy",
    "build_transfer",
    "classical_slavnov",
    "classify_solutions",
    "eigenpairs",
    "eigenvalues",
    "eigenvalue_gradient",
    "factorize_twist",
    "gaudin_matrix",
    "gaudin_norm",
    "norm_report",
    "overlap_report",
    "slavnov_formula",
    "solve_newton",
    "solve_tq_fit",
    "spectrum_match",
    "structure_checks",
    "transfer_eigenvalue",
    "w0",
]

"""Dense complex linear algebra for small spin-chain Hilbert spaces.

Everything works on plain complex numpy arrays.  The largest object the
workbench ever touches is a 2^12 x 2^12 matrix, comfortably inside LAPACK
territory, so numpy does the heavy lifting here and this module adds the
validation and the matrix-polynomial bookkeeping the transfer-matrix
machinery needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "MatrixPolynomial",
    "MAX_EIG_DIM",
    "determinant",
    "eigenpairs",
    "eigenvalues",
    "kron_chain",
]

# Dimension guard for dense eigendecompositions; beyond this the workbench
# is being used outside its desk-scale design envelope.
MAX_EIG_DIM = 2 ** 12


class ConvergenceError(RuntimeError):
    """The iterative eigensolver backend did not converge."""


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError(f"matrix must be non-empty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _square(m) -> np.ndarray:
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return a


def kron_chain(ops) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left factor slowest."""
    mats = [_as_matrix(op) for op in ops]
    if not mats:
        raise ValueError("kron_chain needs at least one factor")
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def determinant(m) -> complex:
    """Determinant of a square complex matrix (LU with partial pivoting)."""
    return complex(np.linalg.det(_square(m)))


def _dense_eig(solve, m):
    """``solve`` (a LAPACK eigen-driver) on a validated square matrix within
    the dense cap; a LAPACK failure becomes a ConvergenceError."""
    a = _square(m)
    if a.shape[0] > MAX_EIG_DIM:
        raise ValueError(
            f"dimension {a.shape[0]} exceeds the dense-eigensolver cap {MAX_EIG_DIM}"
        )
    try:
        return solve(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc


def _spectral_order(vals: np.ndarray) -> np.ndarray:
    """Indices sorting eigenvalues by (Re, Im)."""
    return np.lexsort((vals.imag, vals.real))


def eigenpairs(m) -> list[tuple[complex, np.ndarray]]:
    """Right eigenpairs of a dense complex matrix.

    Returns [(value, vector), ...] sorted by (Re, Im) of the value; each
    vector is normalized to unit Euclidean norm.  Delegates to LAPACK, whose
    internal iteration cap plays the role of a convergence budget.
    """
    vals, vecs = _dense_eig(np.linalg.eig, m)
    return [(complex(vals[k]), np.array(vecs[:, k])) for k in _spectral_order(vals)]


def eigenvalues(m) -> np.ndarray:
    """The values of ``eigenpairs(m)``, in the same (Re, Im) order, without
    computing the eigenvectors."""
    vals = _dense_eig(np.linalg.eigvals, m)
    return vals[_spectral_order(vals)]


def _read_only(a: np.ndarray) -> bool:
    """True when neither the array nor any array it views is writable."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


@dataclass(frozen=True)
class MatrixPolynomial:
    """Matrix-valued polynomial sum_k coeffs[..., k, :, :] * (u / unit)**k.

    coeffs has shape (*blocks, degree + 1, d, d): any leading axes index a
    stack of blocks that share the degree and are evaluated together, so a
    value carries those axes in front of its d x d matrix.  ``unit`` scales
    the variable: a polynomial whose natural variable is z = u / c keeps
    O(1) coefficients in z for every c, where its coefficients in u would
    carry c**-k and leave the float range for large or small |c|.
    Evaluation is one contraction of the power vector (1, z, ..., z**n)
    against the stack; coefficients are stored exactly as given (no
    trimming), so the derivative at zero is coefficient(1) / unit.  A
    read-only complex array is kept as it is, so several polynomials can be
    views of one stack; any other input is copied.
    """

    coeffs: np.ndarray
    unit: complex = 1.0 + 0.0j

    def __post_init__(self):
        c = self.coeffs
        if not (isinstance(c, np.ndarray) and c.dtype == complex and _read_only(c)):
            # copy, so no caller keeps a writable handle on the coefficients
            c = np.array(c, dtype=complex)
            c.setflags(write=False)
        if c.ndim < 3 or c.shape[-1] != c.shape[-2]:
            raise ValueError(f"coeffs must have shape (..., k, d, d), got {c.shape}")
        if c.shape[-3] == 0:
            raise ValueError("need at least the constant coefficient")
        unit = complex(self.unit)
        if unit == 0 or not np.isfinite(unit):
            raise ValueError(f"unit of the variable must be finite and nonzero, got {unit}")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "unit", unit)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[-3] - 1

    @property
    def dim(self) -> int:
        return self.coeffs.shape[-1]

    def coefficient(self, k: int) -> np.ndarray:
        """Coefficient of (u / unit)**k, one d x d matrix per block."""
        if not 0 <= k <= self.degree:
            raise ValueError(f"coefficient index must lie in 0..{self.degree}, got {k}")
        return np.array(self.coeffs[..., k, :, :])

    def __call__(self, u: complex) -> np.ndarray:
        # one matrix-vector product per block over the stack seen as
        # (..., k, d*d); the result is a fresh array, never a view of the
        # coefficients
        *blocks, k, d, _ = self.coeffs.shape
        powers = (complex(u) / self.unit) ** np.arange(k)
        value = np.matmul(powers, self.coeffs.reshape(*blocks, k, d * d))
        return value.reshape(*blocks, d, d)

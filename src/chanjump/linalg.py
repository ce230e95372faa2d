"""Dense linear-algebra kernel.

Stationary states, the Drazin inverse on the complement of the stationary
direction, SVD-based pseudoinverse, numerical rank, and null-space bases.
Everything is double precision and dense; networks here are desk scale.

The default rank threshold is 1e-10 relative to the largest singular value.
Structural kernels (of 0/1 projection matrices) are exact, so the spectral
gap is many orders of magnitude in practice; the threshold is overridable
everywhere regardless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonErgodicError, NumericalError, ValidationError
from .network import StateGenerator, StationaryState, checked_probability

__all__ = [
    "DEFAULT_TOL",
    "StationaryState",
    "KernelBasis",
    "stationary_state",
    "drazin_inverse",
    "pseudo_inverse",
    "numerical_rank",
    "kernel_basis",
]

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class KernelBasis:
    """Orthonormal columns spanning a right null space at a given threshold."""

    vectors: np.ndarray
    dim: int
    tolerance: float


def _as_matrix(L, what: str) -> np.ndarray:
    """L's matrix as floats, through ``_finite`` like every other entry point's."""
    return _finite(L.matrix if isinstance(L, StateGenerator) else np.asarray(L, dtype=float), what)


def stationary_state(L, tol: float = DEFAULT_TOL) -> StationaryState:
    """Stationary probability vector of a generator.

    Raises NonErgodicError (carrying the measured null dimension) when the
    zero eigenvalue is not simple at the given relative threshold.
    """
    M = _as_matrix(L, "stationary_state")
    n = M.shape[0]
    _, s, Vh = np.linalg.svd(M)
    smax = s[0] if len(s) else 0.0
    if smax == 0.0:
        raise NonErgodicError("zero generator has no unique stationary state", null_dim=n)
    null_dim = int(np.sum(s < tol * smax))
    if null_dim != 1:
        raise NonErgodicError(
            f"generator is not ergodic: null space dimension {null_dim} at tol {tol:g}",
            null_dim=null_dim,
        )
    v = Vh[-1]
    total = v.sum()
    if total == 0.0:
        raise NumericalError("stationary null vector sums to zero")
    p = v / total
    if p.min() < -1e-12:
        raise NumericalError(f"stationary vector has a negative entry {p.min():g}")
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    p.flags.writeable = False
    return StationaryState(p=p, ergodic=True)


def drazin_inverse(L, p: StationaryState | np.ndarray | None = None) -> np.ndarray:
    """Drazin inverse R of an ergodic generator.

    R satisfies L R = R L = I - p 1^T, R p = 0 and 1^T R = 0.  Computed by
    solving the bordered system [[L, p], [1^T, 0]] [R; y] = [I - p 1^T; 0]
    column by column; for an ergodic generator the bordered matrix is
    nonsingular, so no eigendecomposition is needed.  A p that is not a
    probability vector, or with |L p| past 1e-9 max|L| in some entry, is a
    ValidationError.
    """
    M = _as_matrix(L, "drazin_inverse")
    n = M.shape[0]
    if p is None:
        p = stationary_state(M)
    pv = checked_probability(p, n)
    if np.abs(M @ pv).max() > 1e-9 * np.abs(M).max():
        raise ValidationError("p is not the stationary state of L")
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = M
    bordered[:n, n] = pv
    bordered[n, :n] = 1.0
    rhs = np.zeros((n + 1, n))
    rhs[:n, :] = np.eye(n) - np.outer(pv, np.ones(n))
    try:
        X = np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular bordered system: {exc}") from exc
    R = X[:n, :]
    R.flags.writeable = False
    return R


def _finite(A: np.ndarray, what: str) -> np.ndarray:
    """A itself; a NumericalError naming ``what`` if an entry is inf or NaN."""
    if not np.all(np.isfinite(A)):
        raise NumericalError(f"{what} requires finite entries")
    return A


def pseudo_inverse(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse; singular values below tol * s_max are zeroed."""
    A = _finite(np.asarray(M, dtype=float), "pseudo_inverse")
    return np.linalg.pinv(A, rcond=tol)


def numerical_rank(M, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values >= tol * s_max (0 for the zero matrix)."""
    A = _finite(np.atleast_2d(np.asarray(M, dtype=float)), "numerical_rank")
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    smax = s[0] if len(s) else 0.0
    if smax == 0.0:
        return 0
    return int(np.sum(s >= tol * smax))


def kernel_basis(M, tol: float = DEFAULT_TOL) -> KernelBasis:
    """Orthonormal basis of the right null space at the relative threshold.

    dim + numerical_rank always equals the number of columns.
    """
    A = _finite(np.atleast_2d(np.asarray(M, dtype=float)), "kernel_basis")
    ncols = A.shape[1]
    rank = numerical_rank(A, tol)
    _, _, Vh = np.linalg.svd(A, full_matrices=True)
    basis = Vh[rank:].T.copy()
    basis.flags.writeable = False
    return KernelBasis(vectors=basis, dim=ncols - rank, tolerance=tol)

"""Dense linear-algebra helpers behind explicit contracts.

A non-positive-definite left side of the Hermitian solve raises instead of
returning garbage, and orthonormal completion refuses to return a
collapsed column.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DecompositionError, DimensionError


def _as_matrix(mat) -> np.ndarray:
    a = np.asarray(mat)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionError("matrix contains non-finite entries")
    return a.astype(np.complex128, copy=False)


def solve_hermitian_posdef(h, rhs) -> np.ndarray:
    """Solve ``h @ x = rhs`` for Hermitian positive definite ``h``."""
    a = _as_matrix(h)
    b = np.asarray(rhs, dtype=np.complex128)
    try:
        factor = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise DecompositionError(f"matrix is not positive definite: {exc}") from exc
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


def orthonormal_completion(cols: np.ndarray, dim: int) -> np.ndarray:
    """Columns extending ``cols`` (orthonormal, ``dim`` rows) to a full basis.

    Modified Gram-Schmidt against the accepted columns with one
    reorthogonalization pass; each new column starts from the coordinate
    vector with the largest residual, which keeps the construction
    deterministic and well conditioned.
    """
    have = np.asarray(cols, dtype=np.complex128).reshape(dim, -1)
    need = dim - have.shape[1]
    if need < 0:
        raise DimensionError("more columns than the ambient dimension")
    out = np.empty((dim, need), dtype=np.complex128)
    basis = have
    for j in range(need):
        resid = np.eye(dim, dtype=np.complex128) - basis @ basis.conj().T
        norms = np.linalg.norm(resid, axis=0)
        v = resid[:, int(np.argmax(norms))]
        v = v - basis @ (basis.conj().T @ v)
        nrm = np.linalg.norm(v)
        if nrm < 1e-8:
            raise DecompositionError("orthonormal completion collapsed")
        out[:, j] = v / nrm
        basis = np.hstack([basis, out[:, j : j + 1]])
    return out

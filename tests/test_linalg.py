"""Decomposition primitive contracts on anchors and random inputs."""

import numpy as np
import pytest

from gsvdist import RngStream, sample_ginibre
from gsvdist.errors import DecompositionError
from gsvdist import linalg


def test_solve_scalar_matrix():
    x = linalg.solve_hermitian_posdef(2.0 * np.eye(2), np.eye(2))
    np.testing.assert_allclose(x, 0.5 * np.eye(2), atol=1e-14)


def test_solve_rejects_indefinite():
    with pytest.raises(DecompositionError):
        linalg.solve_hermitian_posdef(np.diag([1.0, -1.0]), np.eye(2))


def test_decomposition_residuals_random():
    # residual bounds on 1000 random complex inputs with dims <= 16
    gen = RngStream(1234).generator()
    for trial in range(1000):
        rows = int(gen.integers(1, 17))
        cols = int(gen.integers(1, 17))
        mat = sample_ginibre(rows, cols, gen)

        herm = mat @ mat.conj().T + np.eye(rows)
        herm_budget = 1e-10 * (1.0 + np.linalg.norm(herm))

        rhs = sample_ginibre(rows, 2, gen)
        x = linalg.solve_hermitian_posdef(herm, rhs)
        assert np.linalg.norm(herm @ x - rhs) <= herm_budget * np.linalg.norm(rhs)


def test_orthonormal_completion():
    gen = RngStream(77).generator()
    for dim, have in [(5, 2), (6, 0), (4, 4), (7, 3)]:
        base = np.linalg.qr(sample_ginibre(dim, max(have, 1), gen))[0][:, :have]
        comp = linalg.orthonormal_completion(base, dim)
        full = np.hstack([base, comp])
        assert full.shape == (dim, dim)
        assert np.linalg.norm(full.conj().T @ full - np.eye(dim)) < 1e-12

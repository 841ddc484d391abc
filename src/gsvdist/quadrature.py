"""Adaptive integration over (0, inf) as an independent normalization oracle.

The half line is compactified by ``w = u / (1 - u)`` with ``u`` in (0, 1),
after which adaptive Gauss-Kronrod handles the transformed integrand.  Used
to certify that density normalizations really integrate to one, so it must
stay independent of the closed-form kernel.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import ParameterError, QuadratureError


def quadrature_integrate(f: Callable[[float], float], rel_tol: float = 1e-8) -> float:
    """Integral of ``f`` over (0, inf) with estimated relative error <= rel_tol."""
    if not 0.0 < rel_tol < 1.0:
        raise ParameterError(f"rel_tol must be in (0, 1), got {rel_tol}")

    def transformed(u: float) -> float:
        w = u / (1.0 - u)
        return f(w) / (1.0 - u) ** 2

    result = quad(
        transformed,
        0.0,
        1.0,
        epsabs=0.0,
        epsrel=rel_tol,
        limit=200,
        full_output=1,
    )
    value, abs_err = float(result[0]), float(result[1])
    if len(result) > 3:
        raise QuadratureError(f"integration did not converge: {result[3]}")
    if not np.isfinite(value):
        raise QuadratureError("integration produced a non-finite value")
    if abs_err > rel_tol * max(abs(value), 1e-300):
        raise QuadratureError(
            f"estimated error {abs_err:.3e} exceeds rel_tol for value {value:.6e}"
        )
    return value

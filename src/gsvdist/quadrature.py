"""Adaptive integration over (0, inf) as an independent normalization oracle.

The half line is compactified by ``w = u / (1 - u)`` with ``u`` in (0, 1),
where an adaptive Gauss-Legendre rule integrates the transformed integrand.
Used to certify that density normalizations really integrate to one, so it
must stay independent of the closed-form kernel: its nodes come from
scipy's Legendre roots, not from the package's Jacobi recurrence.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np
from scipy.integrate import fixed_quad

from .errors import ParameterError, QuadratureError

# the summed error estimate must sit this far inside rel_tol: |G40 - G20|
# is G20's error, and at an endpoint singularity G40's is of the same order
_MARGIN = 10.0
_MAX_PANELS = 200
# a panel narrower than this share of its upper end is refused, not split:
# near u = 1 its nodes would round onto the end, where w is infinite
_NARROWEST = 2.0**-30


def quadrature_integrate(f: Callable[[np.ndarray], np.ndarray], rel_tol: float = 1e-8) -> float:
    """Integral of ``f`` over (0, inf) with estimated relative error <= rel_tol.

    ``f`` maps a float array of points in (0, inf) to an array of the same
    shape; it is called only on arrays.  Each panel of ``u`` in (0, 1)
    takes a 20-point and a 40-point Gauss-Legendre estimate
    (``scipy.integrate.fixed_quad``, one integrand call each), and its error
    estimate is their difference.  The panel with the largest estimate is
    bisected until ten times the summed estimates is at most ``rel_tol``
    times the summed 40-point values, which are returned.  The rule is
    meant for integrands smooth in ``u``, as every density of this package
    is (``u^a (1-u)^b`` times a polynomial): an n-point panel is exact to
    degree 2n - 1.  A non-finite value, a panel too narrow to split and no
    convergence within 200 panels raise :class:`QuadratureError`.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ParameterError(f"rel_tol must be in (0, 1), got {rel_tol}")

    def transformed(u: np.ndarray) -> np.ndarray:
        return f(u / (1.0 - u)) / (1.0 - u) ** 2

    # a panel is (-|G40 - G20|, a, b, G40): the heap pops the worst one first
    def panel(a: float, b: float) -> tuple[float, float, float, float]:
        coarse, fine = (fixed_quad(transformed, a, b, n=n)[0] for n in (20, 40))
        if not (np.isfinite(coarse) and np.isfinite(fine)):
            raise QuadratureError("integration produced a non-finite value")
        return -abs(fine - coarse), a, b, fine

    panels = [panel(0.0, 1.0)]
    while True:
        value = math.fsum(p[3] for p in panels)
        if _MARGIN * -math.fsum(p[0] for p in panels) <= rel_tol * abs(value):
            return value
        if len(panels) >= _MAX_PANELS:
            raise QuadratureError(f"integration did not converge in {_MAX_PANELS} panels")
        _, a, b, _ = heapq.heappop(panels)
        if b - a < _NARROWEST * b:
            raise QuadratureError(f"panel [{a!r}, {b!r}] is too narrow to split")
        for half in ((a, 0.5 * (a + b)), (0.5 * (a + b), b)):
            heapq.heappush(panels, panel(*half))

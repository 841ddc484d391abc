"""Closed-form eigenvalue laws of the complex Gaussian ratio ensemble.

For independent standard complex Gaussian ``x`` (m' x p) and ``y``
(m' x n') with ``m' <= n'``, the nonzero eigenvalues of
``x^H (y y^H)^{-1} x`` have the joint density

    f(w_1..w_l) = M * prod w_i^t1 / prod (1+w_i)^t2 * prod_{i<j} (w_i-w_j)^2

with ``l = min(p, m')``, ``t1 = |m' - p|``, ``t2 = p + n'``, and a
normalization constant M built from complex multivariate gamma functions.

This is a beta = 2 ensemble with weight ``omega(w) = w^t1 (1+w)^-t2``.
Under ``u = w/(1+w)`` the weight, the Vandermonde and the Jacobian become
the Jacobi unitary ensemble on (0, 1) with weight ``u^a (1-u)^b``,
``a = t1`` and ``b = n' - m'``, so the single-eigenvalue marginal is the
Christoffel-Darboux kernel on the diagonal (Mehta, *Random Matrices*,
ch. 5; Forrester, *Log-gases and Random Matrices*, ch. 3):

    g(w) = (1+w)^-2 * (1/l) * sum_{k<l} phi_k(u)^2,
    phi_k(u) = sqrt(u^a (1-u)^b) p_k(u),

with ``p_k`` the orthonormal Jacobi polynomials on (0, 1), built by their
three-term recurrence and normalized by ``B(a+1, b+1)`` from ``lgamma``.
Every term is a square, so nothing cancels, and any ``l`` is allowed.  The
reciprocal identity is the reflection ``u -> 1 - u = 1/(1+w)``, which swaps
``a`` and ``b``.  The CDF integrates the kernel in ``u``: its integrand is
``u^a (1-u)^b`` times a polynomial of degree ``2l - 2``, which
``l + (a+b)//2`` Gauss-Legendre nodes integrate exactly over (0, x] with
``x <= 1/2`` (the upper half goes through the reflection).

Error bound, measured against exact rational inversion of the Hankel
moment matrix ``G_ij = B(t1+i+j+1, t2-t1-i-j-1)`` and 60-digit mpmath on a
21-point grid over 1e-3 <= w <= 1e3: for every ``m', p <= 10``,
``n' <= 12`` the density and its reciprocal form are within 3e-14
relative and the CDF within 6e-15 absolute.  The error grows with ``t2``
through the log weight, and only mildly with ``l``: on 15 larger triples
with ``l`` up to 25 and ``t2`` up to 903 (points where the density exceeds
1e-250) the density stays below ``2e-15 * t2`` relative (1e-13 at
(25, 25, 30), 5.1e-13 at (400, 3, 900)) and the CDF below ``1e-15 * t2``
absolute (3.2e-13 at (400, 3, 900)).  Powers and Beta values stay in log
domain throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConsistencyError, DimensionError, PoleError

LOG_PI = math.log(math.pi)
# values per run of a large evaluation (see _by_block)
_BLOCK = 32768


def log_mvgamma(dim: int, a: float) -> float:
    """Log of the complex multivariate gamma function.

    ``pi^(dim(dim-1)/2) * prod_{i=1}^{dim} Gamma(a - i + 1)``, evaluated
    entirely in log domain.  Requires ``a > dim - 1`` (pole otherwise).
    """
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    if a <= dim - 1:
        raise PoleError(f"log_mvgamma({dim}, {a}): need a > {dim - 1}")
    return 0.5 * dim * (dim - 1) * LOG_PI + sum(
        math.lgamma(a - i) for i in range(dim)
    )


def log_norm_constant(m_prime: int, p: int, n_prime: int) -> float:
    """Log normalization constant M of the joint eigenvalue density.

    Two branches depending on the sign of ``p - m'``; the exponent of pi is
    ``d(d-1)`` (not halved) with ``d`` the smaller of the two, exactly as
    the density requires.
    """
    _validate_triple(m_prime, p, n_prime)
    if p >= m_prime:
        d = m_prime
        others = (p, n_prime, d)
    else:
        d = p
        others = (m_prime, p + n_prime - m_prime, d)
    value = d * (d - 1) * LOG_PI + log_mvgamma(d, p + n_prime) - math.lgamma(d + 1)
    for arg in others:
        value -= log_mvgamma(d, arg)
    return value


def _validate_triple(m_prime: int, p: int, n_prime: int) -> None:
    if min(m_prime, p, n_prime) < 1:
        raise DimensionError(
            f"law parameters must be >= 1, got ({m_prime}, {p}, {n_prime})"
        )
    if m_prime > n_prime:
        raise DimensionError(
            f"need m' <= n', got m' = {m_prime}, n' = {n_prime}"
        )


@dataclass(frozen=True)
class LawParams:
    """Frozen parameter bundle for the eigenvalue laws.

    Derived fields: ``l = min(p, m')``, ``t1 = |m' - p|``, ``t2 = p + n'``,
    ``t1_reciprocal = n' - m'``, and the log normalization constant.  The
    identity ``t2 - t1 - 2l + 1 = n' - m' + 1 >= 1`` guarantees every Beta
    argument in the marginal is at least one.
    """

    m_prime: int
    p: int
    n_prime: int
    l: int
    t1: int
    t2: int
    t1_reciprocal: int
    log_m: float


def law_params(m_prime: int, p: int, n_prime: int) -> LawParams:
    """Validate a triple and derive the full law parameterization."""
    _validate_triple(m_prime, p, n_prime)
    params = LawParams(
        m_prime=m_prime,
        p=p,
        n_prime=n_prime,
        l=min(p, m_prime),
        t1=abs(m_prime - p),
        t2=p + n_prime,
        t1_reciprocal=n_prime - m_prime,
        log_m=log_norm_constant(m_prime, p, n_prime),
    )
    if params.t2 - params.t1 - 2 * params.l + 1 < 1:
        raise ConsistencyError(f"Beta-argument positivity violated for {params}")
    return params


def _check_positive(w: np.ndarray) -> None:
    if w.size == 0:
        raise DimensionError("empty evaluation point")
    if not ((w > 0.0) & (w < np.inf)).all():
        raise DimensionError("evaluation points must be finite and positive")


def joint_pdf(params: LawParams, w) -> float:
    """Joint density of the unordered nonzero eigenvalues.

    Symmetric in its arguments (the eigenvalue collection is exchangeable)
    and zero whenever two coordinates coincide, through the squared
    Vandermonde factor.
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if w.size != params.l:
        raise DimensionError(f"expected {params.l} eigenvalues, got {w.size}")
    _check_positive(w)
    log_value = (
        params.log_m
        + params.t1 * np.sum(np.log(w))
        - params.t2 * np.sum(np.log1p(w))
    )
    for i in range(w.size):
        for j in range(i + 1, w.size):
            diff = abs(w[i] - w[j])
            if diff == 0.0:
                return 0.0
            log_value += 2.0 * math.log(diff)
    return float(np.exp(log_value))


@lru_cache(maxsize=64)
def _recurrence(l: int, a: int, b: int) -> tuple[tuple, tuple, float]:
    """Orthonormal three-term recurrence on (0, 1) for the weight ``u^a (1-u)^b``.

    ``u p_k = beta_{k+1} p_{k+1} + alpha_k p_k + beta_k p_{k-1}`` with
    ``p_0 = B(a+1, b+1)^(-1/2)``: the Jacobi recurrence (Szegő, *Orthogonal
    Polynomials*, §4.5) moved from (-1, 1) to (0, 1).  Returns
    ``alpha_0..alpha_{l-2}``, ``beta_0..beta_{l-1}`` with ``beta_0 = 0``, and
    ``log(l B(a+1, b+1))``.
    """
    alpha, beta = [], [0.0]
    for k in range(l - 1):
        s = 2 * k + a + b
        # s = 0 only when a = b = 0, where the numerator vanishes as well
        alpha.append(0.5 + (a * a - b * b) / (2.0 * max(s, 1) * (s + 2)))
    for k in range(1, l):
        s = 2 * k + a + b
        beta.append(math.sqrt(k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1) * (s - 1))))
    log_norm = math.log(l) + math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(a + b + 2)
    return tuple(alpha), tuple(beta), log_norm


def _kernel(l: int, a: int, b: int, u, log_weight):
    """``(1/l) sum_{k<l} phi_k(u)^2`` with ``phi_k = sqrt(u^a (1-u)^b) p_k(u)``.

    ``log_weight`` is ``log(u^a (1-u)^b)``, times any Jacobian, formed by the
    caller from the most accurate logs it has.  A sum of squares: no term
    can cancel another.
    """
    alpha, beta, log_norm = _recurrence(l, a, b)
    prev, cur, total = 0.0, 1.0, 1.0
    for k in range(l - 1):
        prev, cur = cur, ((u - alpha[k]) * cur - beta[k] * prev) / beta[k + 1]
        total = total + cur * cur
    return np.exp(log_weight - log_norm) * total


def _by_block(f, x: np.ndarray, width: int = 1):
    """``f(x)``, taken over runs of the flattened points when ``x`` is large.

    ``f`` makes ``width`` temporaries per point; runs of ``_BLOCK // width``
    points keep them in cache, which more than halves the time per point
    on large grids.
    """
    step = max(1, _BLOCK // width)
    if x.size <= step:
        return f(x)
    flat = x.reshape(-1)
    out = np.empty(flat.shape)
    for i in range(0, flat.size, step):
        out[i : i + step] = f(flat[i : i + step])
    return out.reshape(x.shape)


def _density(params: LawParams, w, a: int, b: int, u_of_w):
    w = np.asarray(w, dtype=np.float64)
    _check_positive(w)
    # u^a (1-u)^b (1+w)^-2 is w^t1 (1+w)^-(t1 + t1' + 2) in either orientation
    shift = params.t1 + params.t1_reciprocal + 2

    def block(w):
        log_weight = params.t1 * np.log(w) - shift * np.log1p(w)
        return _kernel(params.l, a, b, u_of_w(w), log_weight)

    out = _by_block(block, w)
    return float(out) if np.ndim(out) == 0 else out


def marginal_pdf(params: LawParams, w):
    """Density of a single (uniformly chosen) eigenvalue at ``w``.

    Accepts a scalar or an array of positive points.  Under
    ``u = w/(1+w)`` it is ``(1+w)^-2 (1/l) sum_{k<l} phi_k(u)^2`` with
    ``phi_k`` the orthonormal Jacobi functions of ``u^t1 (1-u)^(n'-m')``.
    """
    return _density(params, w, params.t1, params.t1_reciprocal, lambda w: w / (1.0 + w))


def marginal_pdf_reciprocal(params: LawParams, w):
    """Marginal density through the reciprocal-argument identity.

    The reflection ``u -> 1 - u = 1/(1+w)`` swaps the Jacobi exponents, so
    this evaluates the kernel of ``u^(n'-m') (1-u)^t1`` at ``1/(1+w)``.  It
    agrees with :func:`marginal_pdf` to within roundoff, which makes the pair
    a mutual consistency check of the recurrence.
    """
    return _density(params, w, params.t1_reciprocal, params.t1, lambda w: 1.0 / (1.0 + w))


@lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``n``-point Gauss-Legendre nodes, their logs and weights on (0, 1)."""
    nodes, weights = leggauss(n)
    rule = ((nodes + 1.0) / 2.0, np.log1p(nodes) - math.log(2.0), weights / 2.0)
    for array in rule:
        array.setflags(write=False)
    return rule


def _lower_mass(l: int, a: int, b: int, x: np.ndarray) -> np.ndarray:
    """``int_0^x (1/l) sum_{k<l} phi_k(u)^2 du`` at points ``0 < x <= 1/2``.

    The integrand is ``u^a (1-u)^b`` times a polynomial of degree ``2l - 2``,
    so ``l + (a+b)//2`` Gauss-Legendre nodes integrate it exactly, with
    positive weights on nonnegative values.
    """
    nodes, log_nodes, weights = _gauss_legendre(l + (a + b) // 2)

    def block(x):
        u = np.multiply.outer(x, nodes)
        log_weight = a * np.add.outer(np.log(x), log_nodes) + b * np.log1p(-u)
        return (_kernel(l, a, b, u, log_weight) @ weights) * x

    return _by_block(block, x, nodes.size)


def marginal_cdf(params: LawParams, w):
    """Distribution function of a single eigenvalue.

    For ``w <= 1`` the mass of (0, u] with ``u = w/(1+w)``; above, one minus
    the mass of (u, 1), which is the mass of (0, 1/(1+w)] under the
    reflected weight.  Either way the interval is at most (0, 1/2].
    Cross-checked against quadrature of the density in the test suite.
    """
    w = np.asarray(w, dtype=np.float64)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    if not (w >= 0.0).all():
        raise DimensionError("CDF points must be nonnegative (inf allowed)")
    upper = w > 1.0
    x = np.where(upper, 1.0, w) / (1.0 + w)
    total = upper.astype(np.float64)
    for side, a, b, sign in (
        (~upper, params.t1, params.t1_reciprocal, 1.0),
        (upper, params.t1_reciprocal, params.t1, -1.0),
    ):
        pick = side & (x > 0.0)
        if pick.any():
            total[pick] += sign * _lower_mass(params.l, a, b, x[pick])
    if np.any(total < -1e-9) or np.any(total > 1.0 + 1e-9):
        raise ConsistencyError("CDF accumulation left [0, 1] beyond roundoff")
    out = np.clip(total, 0.0, 1.0)
    return float(out[0]) if scalar else out

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
``a`` and ``b``.

The CDF is closed form.  With ``pu = a + 1 - s``, ``pv = b + 1 - t``
(normally ``s = t = 0``), ``q_k`` the orthonormal Jacobi polynomials of
``u^pu (1-u)^pv`` and ``I`` the regularized incomplete Beta function,

    F(w) = I_u(pu, pv) + u^pu (1-u)^pv * sum_{k<=2l-3+s+t} e_k q_k(u).

The density is ``u^(pu-1) (1-u)^(pv-1)`` times the polynomial
``u^s (1-u)^t (1/l) sum_{k<l} p_k^2``, whose coefficients ``c_j`` in the
orthonormal family ``r_j`` of ``u^(pu-1) (1-u)^(pv-1)`` come exactly from
the Gauss rule of ``u^a (1-u)^b`` in matrix form.  ``c_0`` gives the Beta
CDF, and the Rodrigues identity (DLMF 18.9; Szegő, *Orthogonal
Polynomials*, §4.21)

    d/du [u^pu (1-u)^pv q_{j-1}] = -sqrt(j (j+pu+pv-1)) u^(pu-1) (1-u)^(pv-1) r_j

integrates every other term, so ``e_{j-1} = -c_j / sqrt(j (j+pu+pv-1))``.
The ``e_k`` are cached per ``(l, a, b)`` and the sum runs by Clenshaw on
the recurrence.  It is signed, and its rounding error is about 1e-16 times
``sum |e_k|``.  When ``l`` and ``|a - b|`` are both large that sum is
large (3e6 at (20, 20, 40) with ``s = t = 0``, where the error reaches
3e-10), so past 32 ``s`` and ``t`` grow by eighths of ``a`` and ``b``:
the weight ``u^pu (1-u)^pv`` gets flatter and the sum ``s + t`` terms
longer, unless the longer sum would leave float range on [0, 1].

For integer exponents ``I_u(pu, pv)`` is the binomial tail
``sum_{j>=pu} C(n, j) u^j (1-u)^(n-j)``, ``n = pu + pv - 1``.  Below
``w = pu/pv`` (the mean of ``u`` under the Beta weight) those terms fall
with ``j``; above it the terms ``j < pu`` fall, and ``F`` is one minus
their sum minus the correction, which keeps values near one accurate.
Either way the tail is a Horner sum with coefficients in (0, 1], which
cannot overflow for any exponents; terms that sum to less than ``2^-60``
of the leading one are dropped.  A point costs ``2l - 3 + s + t``
Clenshaw steps and fewer than ``max(pu, pv)`` Horner steps: 145 at
(400, 3, 900), 21 at ``a = 0``, ``b = 2999``.

Error bound, measured against exact rational inversion of the Hankel
moment matrix ``G_ij = B(t1+i+j+1, t2-t1-i-j-1)`` and 60-digit mpmath on a
21-point grid over 1e-3 <= w <= 1e3: for every ``m', p <= 10``,
``n' <= 12`` the density and its reciprocal form are within 3e-14
relative and the CDF within 2.1e-15 absolute.  The density's error grows
with ``t2`` through the log weight, and only mildly with ``l``: on 15
larger triples with ``l`` up to 25 and ``t2`` up to 903 (points where the
density exceeds 1e-250) it stays below ``2e-15 * t2`` relative (1e-13 at
(25, 25, 30), 5.1e-13 at (400, 3, 900)).  On those triples the CDF stays
below 7.6e-14 absolute (1.3e-14 at (20, 15, 200), 3.8e-14 at
(10, 10, 300), 7.6e-14 at (5, 5, 500)); at (10, 10, 1500) every lowered
choice would overflow and the error is 7.2e-11.  Powers and Beta values
stay in log domain throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

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
    this evaluates the kernel of ``u^(n'-m') (1-u)^t1`` at ``1/(1+w)``.  The
    swapped recurrence has ``alpha'_k = 1 - alpha_k`` and the same
    ``beta_k``, so ``p'_k(1-u) = (-1)^k p_k(u)``: both evaluators sum the
    same squares, rounded differently.  Their agreement checks the
    reflection and the argument mapping, not the recurrence, which a wrong
    coefficient would corrupt on both sides alike; the law itself is
    checked against exact oracles.
    """
    return _density(params, w, params.t1_reciprocal, params.t1, lambda w: 1.0 / (1.0 + w))


def _jacobi_expansion(l: int, a: int, b: int, s: int, t: int) -> np.ndarray:
    """Coefficients ``c_1..c_D`` of ``u^s (1-u)^t (1/l) sum_{k<l} p_k^2``.

    The basis is the orthonormal family ``r_j`` of ``u^(a-s) (1-u)^(b-t)``,
    scaled like :func:`_kernel` (``r_0 = 1``), and ``D = 2l - 2 + s + t``.
    Coefficient ``j`` is ``int u^a (1-u)^b (1/l) sum_k p_k^2 r_j``, and the
    Gauss rule of ``u^a (1-u)^b`` in matrix form gives it exactly as
    ``(1/l) sum_k r_j(J)_kk``, with ``J`` the Jacobi matrix of order
    ``2l + (s+t)//2``: large enough that ``r_j(J)_kk`` for ``j <= D`` and
    ``k < l`` never reaches its truncated last row.  ``c_0 = 1`` is left
    out.
    """
    degree, size = 2 * l - 2 + s + t, 2 * l + (s + t) // 2
    length = max(degree, size) + 2
    alpha, beta, _ = _recurrence(length, a, b)
    ra, rb, _ = _recurrence(length, a - s, b - t)
    off = np.diag(beta[1:size], 1)
    jmat = np.diag(alpha[:size]) + off + off.T
    prev, cur = np.zeros((size, l)), np.eye(size, l)
    coef = []
    for j in range(degree):
        prev, cur = cur, (jmat @ cur - ra[j] * cur - rb[j] * prev) / rb[j + 1]
        coef.append(np.trace(cur) / l)
    return np.array(coef)


# largest sum |e_k| of the CDF's Jacobi sum kept without lowering the
# exponents of its leading Beta part, and largest bound on its terms
# (:func:`_endpoint_sum`) that a lowered choice may reach
_SUM_LIMIT = 32.0
_RANGE_LIMIT = 1e150


class _CdfTable(NamedTuple):
    """Constants of :func:`marginal_cdf` for one ``(l, a, b)``.

    Pairs hold the value below the split, then above it.  ``horner`` lists
    the binomial-tail coefficients from the highest degree down.  The
    correction sum starts from its last coefficient (``top``);
    ``clenshaw`` lists ``(1/beta_{k+1}, alpha_k/beta_{k+1},
    beta_{k+1}/beta_{k+2}, e_k)`` for the other ``k``, downwards, from the
    recurrence of ``u^pu (1-u)^pv`` with ``power = (pu, pv)``.
    """

    split: float
    n: int
    power: tuple[int, int]
    log_binom: tuple[float, float]
    horner: tuple[tuple[float, float], ...]
    scale: tuple[float, float]
    top: float
    clenshaw: tuple[tuple[float, float, float, float], ...]


def _leading_terms(ratios: list[float]) -> list[float]:
    """A leading 1 and the partial products of ``ratios``, while they matter.

    Every ratio is below one, so the terms fall, and the ones dropped sum to
    less than ``2^-60`` of the leading term: no sum that includes it changes.
    """
    terms = [1.0]
    for i, ratio in enumerate(ratios):
        if terms[-1] * ratio * (len(ratios) - i) < 2.0**-60:
            break
        terms.append(terms[-1] * ratio)
    return terms


def _endpoint_sum(e: np.ndarray, qa: tuple, qb: tuple) -> float:
    """``sum_k |e_k q_k(u)|`` at the worse endpoint: a bound on the sum on [0, 1].

    Orthonormal Jacobi polynomials with exponents of at least one take
    their largest values on [0, 1] at an endpoint (Szegő, §7.32).
    """
    worst = 0.0
    for u in (0.0, 1.0):
        prev, cur, total = 0.0, 1.0, abs(e[0])
        for k in range(e.size - 1):
            prev, cur = cur, ((u - qa[k]) * cur - qb[k] * prev) / qb[k + 1]
            total += abs(e[k + 1] * cur)
        worst = max(worst, total)
    return worst


@lru_cache(maxsize=64)
def _cdf_table(l: int, a: int, b: int) -> _CdfTable:
    # The CDF's rounding error is near 1e-16 times sum |e_k|.  Past
    # _SUM_LIMIT, lower both exponents of the leading Beta part by eighths
    # of a and b (at a = b = 0 the weight is flat), unless the longer sum
    # would leave float range somewhere on [0, 1].
    chosen = None
    for s, t in dict.fromkeys((a * i // 8, b * i // 8) for i in range(9)):
        pu, pv = a + 1 - s, b + 1 - t
        # Rodrigues, with q_k orthonormal for u^pu (1-u)^pv:
        # d/du [u^pu (1-u)^pv q_{j-1}]
        #     = -sqrt(j (j+pu+pv-1)) u^(pu-1) (1-u)^(pv-1) r_j
        e = _jacobi_expansion(l, a, b, s, t)
        j = np.arange(1, e.size + 1)
        e = -e / np.sqrt(j * (j + pu + pv - 1.0))
        qa, qb, _ = _recurrence(max(e.size, 1), pu, pv)
        if chosen and not _endpoint_sum(e, qa, qb) < _RANGE_LIMIT:
            break
        chosen = pu, pv, e, qa, qb
        if np.abs(e).sum() <= _SUM_LIMIT:
            break
    pu, pv, e, qa, qb = chosen
    n = pu + pv - 1
    # each binomial term over the leading one, at the split: products of
    # ratios of neighbouring terms, every ratio below one
    below = _leading_terms(
        [pu * (pv - 1 - i) / (pv * (pu + 1 + i)) for i in range(pv - 1)]
    )
    above = _leading_terms(
        [pv * (pu - 1 - i) / (pu * (pv + 1 + i)) for i in range(pu - 1)]
    )
    size = max(len(below), len(above))
    below += [0.0] * (size - len(below))
    above += [0.0] * (size - len(above))
    clenshaw = []
    for k in reversed(range(e.size - 1)):
        step = qb[k + 1] / qb[k + 2] if k + 2 < e.size else 0.0
        clenshaw.append((1.0 / qb[k + 1], qa[k] / qb[k + 1], step, float(e[k])))
    return _CdfTable(
        split=pu / pv,
        n=n,
        power=(pu, pv),
        log_binom=(math.log(math.comb(n, pu)), math.log(math.comb(n, pu - 1))),
        horner=tuple(zip(below, above))[::-1],
        # the correction's 1/sqrt(B(pu, pv) B(pu+1, pv+1)) over each side's
        # binomial coefficient, with the sign of that side
        scale=(
            math.sqrt(pu * (n + 1) * (n + 2) / pv),
            -math.sqrt(pv * (n + 1) * (n + 2) / pu),
        ),
        top=float(e[-1]) if e.size else 0.0,
        clenshaw=tuple(clenshaw),
    )


def _closed_cdf(table: _CdfTable, w: np.ndarray) -> np.ndarray:
    """``F(w)`` by the closed form, both sides of the split in shared passes."""
    above = w > table.split

    def pick(pair):
        return np.where(above, pair[1], pair[0])

    # rho = u/v below the split and v/u above it; the leading binomial term
    # C(n, pu) u^pu v^(pv-1), or C(n, pu-1) u^(pu-1) v^pv, is
    # C rho^power (1+rho)^-n
    with np.errstate(divide="ignore"):
        rho = np.where(above, 1.0 / w, w)
        lead = np.log(rho)
    lead *= pick(table.power)
    lead -= table.n * np.log1p(rho)
    lead += pick(table.log_binom)
    np.exp(lead, out=lead)
    rows = iter(table.horner)
    tail = pick(next(rows))
    if len(table.horner) > 1:
        z = rho * np.where(above, table.split, 1.0 / table.split)
        for pair in rows:
            tail *= z
            tail += pick(pair)
    vu = 1.0 + rho
    np.divide(1.0, vu, out=vu)  # v below the split, u above it
    if table.clenshaw:
        u = np.where(above, vu, rho * vu)
        b2, b1 = 0.0, table.top
        for inv_beta, shift, step, e_k in table.clenshaw:
            b0 = u * inv_beta
            b0 -= shift
            b0 *= b1
            b0 -= step * b2
            b0 += e_k
            b2, b1 = b1, b0
        b1 *= vu
        b1 *= pick(table.scale)
        tail += b1
    tail *= lead
    return np.where(above, 1.0 - tail, tail)


def marginal_cdf(params: LawParams, w):
    """Distribution function of a single eigenvalue.

    Accepts a scalar or an array of points in ``[0, inf]``.  With
    ``u = w/(1+w)``, ``a = t1`` and ``b = n' - m'`` it is
    ``I_u(a+1, b+1) + u^(a+1) (1-u)^(b+1) sum_{k<=2l-3} e_k q_k(u)``: a Beta
    CDF, summed as a finite binomial tail, plus one Jacobi sum whose
    coefficients are cached per ``(l, a, b)``; where that sum would be
    ill-conditioned the Beta part takes lower exponents and the sum more
    terms.  Above the Beta mean it is evaluated as one minus the mass above
    ``w``, which keeps values near one accurate; the module docstring gives
    the construction and its measured error.
    """
    w = np.asarray(w, dtype=np.float64)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    if not (w >= 0.0).all():
        raise DimensionError("CDF points must be nonnegative (inf allowed)")
    table = _cdf_table(params.l, params.t1, params.t1_reciprocal)
    total = _by_block(lambda w: _closed_cdf(table, w), w, 8)
    if not (total.min() >= -1e-9 and total.max() <= 1.0 + 1e-9):
        raise ConsistencyError("CDF evaluation left [0, 1] beyond roundoff")
    out = np.clip(total, 0.0, 1.0, out=total)
    return float(out[0]) if scalar else out

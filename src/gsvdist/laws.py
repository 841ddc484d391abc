"""Closed-form eigenvalue laws of the complex Gaussian ratio ensemble.

For independent standard complex Gaussian ``x`` (m' x p) and ``y``
(m' x n') with ``m' <= n'``, the nonzero eigenvalues of
``x^H (y y^H)^{-1} x`` have the joint density

    f(w_1..w_l) = M * prod w_i^t1 / prod (1+w_i)^t2 * prod_{i<j} (w_i-w_j)^2

with ``l = min(p, m')``, ``t1 = |m' - p|``, ``t2 = p + n'``, and a
normalization constant M that is one Selberg product of Gamma functions.

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
Every term is a square, so nothing cancels.  The ``phi_k`` are bounded, but
``p_k`` is formed before the weight, so far from the bulk ``p_k^2``
overflows while the weight underflows: on the CLI's default grid the
density is finite up to ``l = 107`` at ``a = 0``, ``b = 10 l`` and up to
``l = 286`` at ``a = b = 2 l``, the CDF up to 108 and 288, and beyond that
every law refuses with :class:`ConsistencyError`.  The reciprocal identity
is the reflection ``u -> 1 - u = 1/(1+w)``, which swaps ``a`` and ``b``.

The CDF is closed form.  Let ``omega_{x,y}`` be the Beta(x+1, y+1)
density, ``P^{x,y}_m`` its orthonormal polynomials (``P_0 = 1``) and
``rho_{x,y} = (x+1)(y+1) / ((x+y+2)(x+y+3))``, so that
``omega_{x+1,y+1} = u (1-u) omega_{x,y} / rho_{x,y}``.  By Rodrigues'
formula (Szegő, *Orthogonal Polynomials*, §4.21; DLMF 18.9) the derivative
of ``P^{x,y}_m`` is ``sqrt(m (m+x+y+1) / rho_{x,y}) P^{x+1,y+1}_{m-1}``,
and integration by parts gives the ladder identity

    int_0^u omega_{x,y} P_m^2 = int_0^u omega_{x+1,y+1} (P^{x+1,y+1}_{m-1})^2
        - c_m omega_{x+1,y+1}(u) P^{x+1,y+1}_{m-1}(u) P^{x,y}_m(u),
    c_m = sqrt(rho_{x,y} / (m (m+x+y+1))).

Applied down to ``m = 0``, with the contiguous relation
``I_u(x+2, y+2) = I_u(x+1, y+1) + omega_{x+1,y+1} ((x+y+2) u - (y+1)) /
((x+y+2)(x+y+3))`` for the Beta CDFs it leaves, it gives with ``x = a+j``,
``y = b+j`` and ``d = l-1-j``

    F(w) = I_u(a+1, b+1) + (1/l) sum_{j<l-1} omega_{x+1,y+1}(u) R_j(u),
    R_j = d ((x+y+2) u - (y+1)) / ((x+y+2)(x+y+3))
          - sum_{m=1..d} c_m P^{x+1,y+1}_{m-1}(u) P^{x,y}_m(u).

Every term is a product of two orthonormal Beta functions, bounded on
[0, 1], so nothing large cancels (within the range above).  The shifts nest
Horner-style in ``u (1-u) / rho`` from the deepest one, and each shift's
polynomials serve as the ``P^{x+1,y+1}`` of the shift below it: a point
costs about ``l^2 / 2`` recurrence steps and as many products.

For integer exponents ``I_u(pu, pv)``, ``pu = a+1``, ``pv = b+1``, is the
binomial tail ``sum_{j>=pu} C(n, j) u^j (1-u)^(n-j)``, ``n = pu + pv - 1``.
Below ``w = pu/pv`` (the mean of ``u`` under the Beta weight) those terms
fall with ``j``.  Above it ``F(w)`` is one minus the reflected law's
``F(1/w)``, whose exponents are ``(b, a)`` and whose correction is this
one with the opposite sign: its constants are the reflected law's below
its split, ``(pu, pv) -> (pv, pu)``, which keeps values near one accurate
(``test_cdf_reciprocal_identity`` checks the identity).  Either way the
tail is a Horner sum with coefficients in (0, 1], which cannot overflow
for any exponents; terms that sum to less than ``2^-60`` of the leading
one are dropped, which leaves fewer than ``max(pu, pv)`` Horner steps:
145 at (400, 3, 900), 21 at ``a = 0``, ``b = 2999``.  The tail's leading
term ``C(n, power) rho^power (1+rho)^-n`` goes through its log as
``-power log1p(1/rho) - (n - power) log1p(rho)``, two terms of one sign,
so no digits are lost at large ``n``; ``power log(rho) - n log1p(rho)``
is a small difference of two numbers near ``n log(rho)`` and cost 5.5e-10
absolute at (1, 1, 10^6).

Error bound, measured against exact rational inversion of the Hankel
moment matrix ``G_ij = B(t1+i+j+1, t2-t1-i-j-1)`` and 60-digit mpmath on a
21-point grid over 1e-3 <= w <= 1e3: for every ``m', p <= 10``,
``n' <= 12`` the density and its reciprocal form are within 3e-14
relative and the CDF within 7.3e-16 absolute.  The density's error grows
with ``t2`` through the log weight, and only mildly with ``l``: on 15
larger triples with ``l`` up to 25 and ``t2`` up to 903 (points where the
density exceeds 1e-250) it stays below ``2e-15 * t2`` relative (1e-13 at
(25, 25, 30), 5.1e-13 at (400, 3, 900)).  On larger triples, against
the same oracle at 160 digits, the CDF stays within 1.7e-15 absolute:
1.7e-15 at (20, 15, 200), 7.8e-16 at (10, 10, 300), 1.1e-15 at
(5, 5, 500), 1.2e-15 at (30, 30, 600), 6.7e-16 at (10, 10, 1500) and
1.7e-15 at (40, 40, 4000).  Where only the Beta part runs, at
``(1, 1, n')``, it is within 2.5e-15 of the exact ``1 - (1+w)^-n'`` for
``n'`` up to 10^8.  Powers and Beta values stay in log domain throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from .engine import ReducedDims
from .errors import ConsistencyError, DimensionError

# doubles of temporaries per run: an evaluator of width k runs _BLOCK // k points
_BLOCK = 32768


def log_norm_constant(m_prime: int, p: int, n_prime: int) -> float:
    """Log normalization constant M of the joint eigenvalue density.

    ``1/M`` is Selberg's integral of the Jacobi ensemble ``u^a (1-u)^b``,
    ``a = |m' - p|``, ``b = n' - m'`` (Mehta, *Random Matrices*, ch. 17):
    one Gamma product for either sign of ``p - m'``, every argument >= 1.
    It is the ``log_m`` field of :func:`law_params`.
    """
    return law_params(m_prime, p, n_prime).log_m


@dataclass(frozen=True)
class LawParams:
    """Frozen parameter bundle for the eigenvalue laws.

    Derived fields: ``l = min(p, m')``, ``t1 = |m' - p|``, ``t2 = p + n'``,
    ``t1_reciprocal = n' - m'``, and the log normalization constant.  The
    identity ``t2 - t1 - 2l + 1 = n' - m' + 1 >= 1`` guarantees every Beta
    argument in the marginal, and every Gamma argument of M, is at least one.
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
    """Validate a triple as :class:`ReducedDims` and derive the full law parameterization."""
    l = ReducedDims(m_prime, p, n_prime).l
    a, b = abs(m_prime - p), n_prime - m_prime
    # Selberg's Gamma product: see log_norm_constant
    log_m = sum(
        math.lgamma(a + b + 2 * l - i) - math.lgamma(a + l - i) - math.lgamma(b + l - i)
        - math.lgamma(l - i) for i in range(l)
    ) - math.lgamma(l + 1)
    return LawParams(
        m_prime=m_prime,
        p=p,
        n_prime=n_prime,
        l=l,
        t1=a,
        t2=p + n_prime,
        t1_reciprocal=b,
        log_m=log_m,
    )


def _check_positive(w: np.ndarray) -> None:
    if not ((w > 0.0) & (w < np.inf)).all():
        raise DimensionError("evaluation points must be finite and positive")


def _check_nonnegative(w: np.ndarray) -> None:
    if not (w >= 0.0).all():
        raise DimensionError("CDF points must be nonnegative (inf allowed)")


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
    # each pair's gap appears twice in the matrix, for the square; a tie's
    # log gap is -inf, so the density there is exactly 0.0
    with np.errstate(divide="ignore"):
        log_gaps = np.sum(np.log(np.abs(w[:, None] - w) + np.eye(w.size)))
    log_value = params.log_m + params.t1 * np.sum(np.log(w)) - params.t2 * np.sum(np.log1p(w))
    return float(np.exp(log_value + log_gaps))


@lru_cache(maxsize=64)
def _steps(x: int, y: int, factor: tuple[float, ...]) -> tuple:
    """The step table of ``f_k P_k``, ``P_k`` orthonormal for ``u^x (1-u)^y``, ``f = factor``.

    ``u P_k = beta_{k+1} P_{k+1} + alpha_k P_k + beta_k P_{k-1}`` on (0, 1)
    (Szegő, *Orthogonal Polynomials*, §4.5).  Step ``k`` is ``(1/beta_{k+1},
    alpha_k/beta_{k+1}, beta_k/beta_{k+1})`` times ``f_{k+1}/f_k``, the same,
    and ``f_{k+1}/f_{k-1}`` (0 at ``k = 0``); the density takes unit factors.
    """
    alpha, beta = [], [0.0]
    for k in range(len(factor) - 1):
        s = 2 * k + x + y
        # s = 0 only when x = y = 0, where the numerator vanishes as well
        alpha.append(0.5 + (x * x - y * y) / (2.0 * max(s, 1) * (s + 2)))
    for k in range(1, len(factor)):
        s = 2 * k + x + y
        beta.append(math.sqrt(k * (k + x) * (k + y) * (k + x + y) / (s * s * (s + 1) * (s - 1))))
    return tuple(
        (
            factor[k + 1] / factor[k] / beta[k + 1],
            factor[k + 1] / factor[k] * alpha[k] / beta[k + 1],
            factor[k + 1] / factor[k - 1] * beta[k] / beta[k + 1] if k else 0.0,
        )
        for k in range(len(factor) - 1)
    )


def _family(u, start: float, steps: tuple):
    """Yield ``start = f_0 P_0``, then each ``(u inv - shift) f_k P_k - ratio f_{k-1} P_{k-1}``.

    Every member after the first is a new array, and only the last two are
    held: a caller that sums as members arrive keeps a few arrays per run.
    """
    prev, cur = None, start
    yield cur
    for inv, shift, ratio in steps:
        nxt = u * inv
        nxt -= shift
        nxt *= cur
        if prev is not None:
            nxt -= prev * ratio
        yield nxt
        prev, cur = cur, nxt


def _kernel(params: LawParams, a: int, b: int, u_of_w, w):
    """The density on one run: ``(1+w)^-2 (1/l) sum_{k<l} phi_k(u)^2``, ``u = u_of_w(w)``.

    ``phi_k = sqrt(u^a (1-u)^b) p_k(u)``, run from ``p_0 = 1``: the weight,
    ``(1+w)^-2``, ``p_0^2 = 1/B(a+1, b+1)`` and ``1/l`` join in one log, and
    ``u^a (1-u)^b (1+w)^-2 = w^t1 (1+w)^-(t1+t1'+2)`` either way.  No term cancels.
    """
    l = params.l
    total = sum(member * member for member in _family(u_of_w(w), 1.0, _steps(a, b, (1.0,) * l)))
    log_weight = params.t1 * np.log(w) - (params.t1 + params.t1_reciprocal + 2) * np.log1p(w)
    log_weight -= math.log(l) + math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(a + b + 2)
    return np.exp(log_weight) * total


def _evaluate(f, w, check, width: int):
    """``f`` over the points ``w`` in runs of ``_BLOCK // width``: every law's one point path.

    Refuses an empty ``w``, through ``check`` a point outside the domain,
    and a value that is not finite.  ``f`` is elementwise, so a ``w`` within
    one run goes in as it is: a 0-d point runs on numpy scalars and returns
    a Python float.  The width is the evaluator's constant, not the order's:
    each run repeats ``f``'s numpy calls, ~``l^2`` for the CDF, whose run
    (width 8) holds about ``2l + 8`` arrays of 4096 doubles, 20 MB at ``l = 300``.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0:
        raise DimensionError("empty evaluation point")
    check(w)
    step = _BLOCK // width
    if w.size <= step:
        out = f(w)
    else:
        flat = w.reshape(-1)
        out = np.empty(flat.shape)
        for i in range(0, flat.size, step):
            out[i : i + step] = f(flat[i : i + step])
        out = out.reshape(w.shape)
    if not np.isfinite(out).all():
        raise ConsistencyError("a law value is not finite: the recurrence left the float range")
    return float(out) if w.ndim == 0 else out


def _density(params: LawParams, w, a: int, b: int, u_of_w):
    return _evaluate(lambda w: _kernel(params, a, b, u_of_w, w), w, _check_positive, 1)


def marginal_pdf(params: LawParams, w):
    """Density of a single (uniformly chosen) eigenvalue at ``w``.

    Accepts a scalar or an array of positive points.  A scalar point goes
    down the array path as a 0-d array and returns its value as a Python
    float, bit for bit the element an array holding it gives.  Under
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


class _CdfTable(NamedTuple):
    """Constants of :func:`marginal_cdf` for one ``(l, a, b)``.

    ``power`` is ``(pu, pv) = (a+1, b+1)``, which fix the split
    ``w = pu/pv`` and the binomial order ``n = pu + pv - 1``.  Pairs hold
    the value below the split, then above it, where the values are the
    reflected law's, ``(a, b) -> (b, a)``, below its split; only the
    correction's ``scale`` changes sign there.  ``horner`` lists
    the binomial-tail coefficients from the highest degree down.  ``top``
    is the one member of the deepest family, and ``ladder`` has one entry
    per shift ``j < l-1``, deepest first: the factor ``1/rho`` that nests
    the deeper shifts, the slope and intercept of ``R_j``'s linear part,
    and the family ``f_jk P^{a+j,b+j}_k`` as its member ``f_j0`` and its
    :func:`_steps` table of the factors ``f_j``.
    """

    power: tuple[int, int]
    log_binom: tuple[float, float]
    horner: tuple[tuple[float, float], ...]
    scale: tuple[float, float]
    top: float
    ladder: tuple[tuple, ...]


def _leading_terms(x: int, y: int) -> list[float]:
    """A leading 1 and the partial products of the neighbour ratios
    ``x (y-1-i) / (y (x+1+i))``, ``i < y-1``, while they matter.

    Every ratio is below one, so the terms fall, and the ones dropped sum to
    less than ``2^-60`` of the leading term: no sum that includes it changes.
    Each ratio is formed as it is reached, so the cost follows the terms
    kept, not ``y``.
    """
    terms = [1.0]
    for i in range(y - 1):
        left = y - 1 - i
        ratio = x * left / (y * (x + 1 + i))
        if terms[-1] * ratio * left < 2.0**-60:
            break
        terms.append(terms[-1] * ratio)
    return terms


def _rho(x: int, y: int) -> float:
    """``E[u (1-u)]`` under Beta(x+1, y+1): ``omega_{x+1,y+1} = u (1-u) omega_{x,y} / rho``."""
    return (x + 1) * (y + 1) / ((x + y + 2) * (x + y + 3))


@lru_cache(maxsize=64)
def _cdf_table(l: int, a: int, b: int) -> _CdfTable:
    pu, pv = a + 1, b + 1
    n = pu + pv - 1
    # per side, the binomial terms over the leading one at the split (each
    # ratio of neighbours below one), the leading log binomial, and
    # omega_{a+1,b+1} / l over the leading term times v; above the split
    # they are the reflected law's, (pv, pu), whose correction changes sign
    terms, log_binom, scale = zip(*(
        (
            _leading_terms(x, y),
            math.log(math.comb(n, x)),
            (n + 1) * (n + 2) / (l * y),
        )
        for x, y in ((pu, pv), (pv, pu))
    ))
    # Family j is P^(a+j,b+j)_k, k < l-j, times factors f_jk chosen so that
    # f_{j+1,m-1} f_jm is the constant -sqrt(rho_{x,y} / (m (m+x+y+1))) of
    # term m of R_j: each term is then one product of two members
    factors, ladder = [1.0] * l, []
    for j in range(l - 1):
        x, y, d = a + j, b + j, l - 1 - j
        ladder.append((
            1.0 / _rho(x + 1, y + 1),
            d / (x + y + 3),
            -d * (y + 1) / ((x + y + 2) * (x + y + 3)),
            factors[0],
            _steps(x, y, tuple(factors)),
        ))
        factors = [
            -math.sqrt(_rho(x, y) / ((k + 1) * (k + x + y + 2))) / f
            for k, f in enumerate(factors[1:])
        ]
    return _CdfTable(
        power=(pu, pv),
        log_binom=log_binom,
        horner=tuple(zip_longest(*terms, fillvalue=0.0))[::-1],
        scale=(scale[0], -scale[1]),
        top=factors[0],
        ladder=tuple(ladder[::-1]),
    )


def _ladder_sum(table: _CdfTable, u: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """``sum_j (omega_{a+j+1,b+j+1} / omega_{a+1,b+1}) R_j(u)``, nested from the deepest shift."""
    upper, total = [table.top], None
    for nest, slope, intercept, start, steps in table.ladder:
        family = list(_family(u, start, steps))
        r = u * slope
        r += intercept
        for low, high in zip(upper, family[1:]):
            r += low * high
        if total is not None:
            total *= uv
            total *= nest
            r += total
        total, upper = r, family
    return total


def _closed_cdf(table: _CdfTable, w: np.ndarray) -> np.ndarray:
    """``F(w)`` by the closed form, both sides of the split in shared passes."""
    pu, pv = table.power
    split = pu / pv
    above = w > split

    def pick(pair):
        return np.where(above, pair[1], pair[0])

    # rho = u/v below the split and v/u above it; the leading binomial term
    # C(n, pu) u^pu v^(pv-1), or C(n, pu-1) u^(pu-1) v^pv, is
    # C rho^power (1+rho)^-n, whose log is written as two terms of one sign,
    # -power log1p(1/rho) - (n-power) log1p(rho), so that nothing cancels
    # at large n.  -0.0 passes the domain check, and 1/w overflows for w
    # below 1/DBL_MAX: either way inv is +inf and the value 0, as at +0.0
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / np.abs(w)
    rho = np.where(above, inv, w)
    lead = np.log1p(np.where(above, w, inv))
    power = pick(table.power)
    lead *= -power
    lead -= (pu + pv - 1 - power) * np.log1p(rho)
    lead += pick(table.log_binom)
    lead = np.exp(lead)
    z = rho * np.where(above, split, 1.0 / split)
    tail = pick(table.horner[0])
    for pair in table.horner[1:]:
        tail *= z
        tail += pick(pair)
    vu = 1.0 + rho
    vu = 1.0 / vu  # v below the split, u above it
    if table.ladder:
        uv = rho * vu
        ladder = _ladder_sum(table, np.where(above, vu, uv), uv * vu)
        ladder *= vu
        ladder *= pick(table.scale)
        tail += ladder
    tail *= lead
    return np.where(above, 1.0 - tail, tail)


def marginal_cdf(params: LawParams, w):
    """Distribution function of a single eigenvalue.

    Accepts a scalar or an array of points in ``[0, inf]``.  With
    ``u = w/(1+w)``, ``a = t1`` and ``b = n' - m'`` it is the Beta CDF
    ``I_u(a+1, b+1)``, summed as a finite binomial tail, plus a correction
    that the ladder identity writes as products of orthonormal Jacobi
    functions of ``u^(a+j) (1-u)^(b+j)``, ``j < l``, with constants cached
    per ``(l, a, b)``.  One path serves every law: no term is large, so
    nothing cancels.  Above the Beta mean it is evaluated as one minus the
    mass above ``w``, which keeps values near one accurate.  The module
    docstring gives the construction, its float-range limit and its
    measured error: 7.3e-16 absolute for ``m', p <= 10``, ``n' <= 12``.
    """
    def run(w):
        total = _closed_cdf(_cdf_table(params.l, params.t1, params.t1_reciprocal), w)
        if total.min() < -1e-9 or total.max() > 1.0 + 1e-9:
            raise ConsistencyError("CDF evaluation left [0, 1] beyond roundoff")
        return np.clip(total, 0.0, 1.0, out=total)

    return _evaluate(run, w, _check_nonnegative, 8)

"""Closed-form law anchors against independent rational and quadrature oracles.

The reference oracles here work in exact ``fractions.Fraction`` arithmetic
(Beta functions of integer arguments are rational): one enumerates the
permutation-pair sum, the other inverts the Hankel moment matrix of the
kernel.  Both expand the marginal in monomials of ``w``, entirely separate
from the package's orthonormal Jacobi basis and its log-domain
floating-point machinery.
"""

import math
import tracemalloc
from fractions import Fraction
from itertools import permutations

import mpmath
import numpy as np
import pytest
from scipy.special import betaln

from gsvdist import (
    ReducedDims,
    joint_pdf,
    law_params,
    laws,
    log_norm_constant,
    marginal_cdf,
    marginal_pdf,
    marginal_pdf_reciprocal,
    quadrature_integrate,
)
from gsvdist.errors import ConsistencyError, DimensionError


def _beta_exact(a: int, b: int) -> Fraction:
    return Fraction(
        math.factorial(a - 1) * math.factorial(b - 1), math.factorial(a + b - 1)
    )


def _sign(perm) -> int:
    inv = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def _merged_exact(l: int, t1: int, t2: int) -> dict[int, Fraction]:
    """Exact rational coefficients of the marginal, merged by exponent."""
    coeffs: dict[int, Fraction] = {}
    for s1 in permutations(range(1, l + 1)):
        for s2 in permutations(range(1, l + 1)):
            weight = Fraction(_sign(s1) * _sign(s2))
            for i in range(l - 1):
                weight *= _beta_exact(
                    t1 + 2 * l - s1[i] - s2[i] + 1,
                    t2 - t1 - 2 * l - 1 + s1[i] + s2[i],
                )
            e = t1 + 2 * l - s1[-1] - s2[-1]
            coeffs[e] = coeffs.get(e, Fraction(0)) + weight
    return {e: c for e, c in coeffs.items() if c != 0}


def _norm_exact(l: int, t1: int, t2: int) -> Fraction:
    """Exact integral of the unnormalized marginal (equals 1/M)."""
    return sum(
        (c * _beta_exact(e + 1, t2 - e - 1) for e, c in _merged_exact(l, t1, t2).items()),
        Fraction(0),
    )


def _kernel_exact(l: int, t1: int, t2: int) -> list[Fraction]:
    """Exact coefficients of ``w^(t1+e)``: anti-diagonal sums of G^-1, over l."""
    rows = [
        [_beta_exact(t1 + i + j + 1, t2 - t1 - i - j - 1) for j in range(l)]
        + [Fraction(int(i == k)) for k in range(l)]
        for i in range(l)
    ]
    # G is positive definite, so Gauss-Jordan needs no pivoting
    for col in range(l):
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for row in range(l):
            if row != col:
                factor = rows[row][col]
                rows[row] = [x - factor * y for x, y in zip(rows[row], rows[col])]
    return [
        sum((rows[i][l + e - i] for i in range(l) if 0 <= e - i < l), Fraction(0)) / l
        for e in range(2 * l - 1)
    ]


# ------------------------------------------------------------------------ M


def _log_mvgamma_mp(dim: int, a: int):
    """Log complex multivariate gamma ``pi^(dim(dim-1)/2) prod_{i<dim} Gamma(a-i)``."""
    return dim * (dim - 1) / 2 * mpmath.log(mpmath.pi) + sum(
        mpmath.loggamma(a - i) for i in range(dim)
    )


def _log_norm_mvgamma_mp(m_prime: int, p: int, n_prime: int):
    """log M from five complex multivariate gammas, branched on the sign of p - m'.

    An independent form of the constant: the pi powers cancel only in
    exact arithmetic, and each branch has its own Gamma arguments.
    """
    d = min(m_prime, p)
    others = (p, n_prime, d) if p >= m_prime else (m_prime, p + n_prime - m_prime, d)
    return (
        d * (d - 1) * mpmath.log(mpmath.pi)
        + _log_mvgamma_mp(d, p + n_prime)
        - mpmath.loggamma(d + 1)
        - sum(_log_mvgamma_mp(d, arg) for arg in others)
    )


def test_norm_constant_matches_multivariate_gamma_form():
    worst = 0.0
    with mpmath.workdps(40):
        for m_prime in range(1, 13):
            for p in range(1, 13):
                for n_prime in range(m_prime, 17):
                    want = _log_norm_mvgamma_mp(m_prime, p, n_prime)
                    err = abs(log_norm_constant(m_prime, p, n_prime) - want)
                    worst = max(worst, float(err / max(1, abs(want))))
    assert worst <= 1e-13


def test_norm_constant_reflection_invariance():
    # the law of 1/w is the reflected triple's (test_cdf_reciprocal_identity),
    # which swaps a and b and keeps l: M is the same number
    worst = 0.0
    for m_prime in range(1, 9):
        for p in range(1, 9):
            for n_prime in range(m_prime, 12):
                if p >= m_prime:
                    reflected = (m_prime, n_prime, p)
                else:
                    reflected = (p, p + n_prime - m_prime, m_prime)
                log_m = log_norm_constant(m_prime, p, n_prime)
                err = abs(log_m - log_norm_constant(*reflected))
                worst = max(worst, err / max(1.0, abs(log_m)))
    assert worst <= 1e-13


def test_norm_constant_symbolic_oracle_222():
    # double integral of (w1-w2)^2 / ((1+w1)(1+w2))^4, expanded into exact
    # Beta values: 2*(B(3,1)B(1,3) - B(2,2)^2) = 1/6, so M(2,2,2) = 6
    b31, b22, b13 = _beta_exact(3, 1), _beta_exact(2, 2), _beta_exact(1, 3)
    integral = 2 * (b31 * b13 - b22 * b22)
    assert integral == Fraction(1, 6)
    assert np.exp(log_norm_constant(2, 2, 2)) == pytest.approx(6.0, abs=1e-10)


@pytest.mark.parametrize(
    "triple",
    [(1, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 4), (3, 2, 4), (2, 3, 3), (4, 2, 5), (4, 4, 6)],
)
def test_norm_constant_matches_exact_enumeration(triple):
    params = law_params(*triple)
    exact = _norm_exact(params.l, params.t1, params.t2)
    assert params.log_m == pytest.approx(-math.log(float(exact)), rel=1e-12)


def test_law_params_derived_fields():
    params = law_params(4, 2, 5)
    assert (params.l, params.t1, params.t2, params.t1_reciprocal) == (2, 2, 7, 1)
    assert params.t2 - params.t1 - 2 * params.l + 1 >= 1
    with pytest.raises(DimensionError):
        law_params(3, 2, 2)  # m' > n'


# -------------------------------------------------------------------- joint


def test_joint_pdf_anchor_111():
    params = law_params(1, 1, 1)
    assert joint_pdf(params, [1.0]) == pytest.approx(0.25, abs=1e-14)


def test_joint_pdf_vanishes_on_ties():
    params = law_params(2, 2, 2)
    assert joint_pdf(params, [1.5, 1.5]) == 0.0


def test_joint_pdf_symmetry():
    params = law_params(2, 2, 2)
    assert joint_pdf(params, [1.0, 2.0]) == pytest.approx(
        joint_pdf(params, [2.0, 1.0]), rel=1e-12
    )


def test_joint_pdf_symmetry_exhaustive():
    for triple in [(3, 3, 4), (4, 4, 5)]:
        params = law_params(*triple)
        w = np.array([0.3, 1.1, 2.7, 6.4])[: params.l]
        base = joint_pdf(params, w)
        for perm in permutations(range(params.l)):
            assert joint_pdf(params, w[list(perm)]) == pytest.approx(base, rel=1e-12)


def test_joint_pdf_arity_and_domain():
    params = law_params(2, 2, 2)
    with pytest.raises(DimensionError):
        joint_pdf(params, [1.0])
    with pytest.raises(DimensionError):
        joint_pdf(params, [1.0, -2.0])


# ----------------------------------------------------------------- marginal


def test_marginal_pdf_anchor_222():
    # exact closed form from the merged coefficients: 2(1 - w + w^2)/(1+w)^4
    params = law_params(2, 2, 2)
    assert marginal_pdf(params, 1.0) == pytest.approx(0.125, abs=1e-12)
    for w in [0.2, 0.9, 3.7]:
        closed = 2.0 * (1.0 - w + w * w) / (1.0 + w) ** 4
        assert marginal_pdf(params, w) == pytest.approx(closed, rel=1e-12)


def test_marginal_pdf_anchor_111_origin():
    params = law_params(1, 1, 1)
    assert marginal_pdf(params, 1e-12) == pytest.approx(1.0, rel=1e-9)


def test_marginal_pdf_anchor_212():
    params = law_params(2, 1, 2)
    assert marginal_pdf(params, 1.0) == pytest.approx(0.25, abs=1e-13)


def test_marginal_pdf_matches_exact_polynomial():
    for triple in [(3, 2, 4), (3, 3, 5), (4, 2, 5)]:
        params = law_params(*triple)
        exact = _merged_exact(params.l, params.t1, params.t2)
        m_const = math.exp(params.log_m)
        for w in [0.05, 0.8, 2.5, 40.0]:
            value = m_const * sum(
                float(c) * w**e / (1.0 + w) ** params.t2 for e, c in sorted(exact.items())
            )
            assert marginal_pdf(params, w) == pytest.approx(value, rel=1e-10)


def _exact_pdf(params, grid) -> np.ndarray:
    """The marginal at ``grid`` from the permutation-pair coefficients.

    The coefficients and M = 1 / integral are rational, and every float
    point is a dyadic rational: the reference is exact up to its final
    rounding.
    """
    exact = _merged_exact(params.l, params.t1, params.t2)
    m_const = 1 / _norm_exact(params.l, params.t1, params.t2)
    ref = []
    for w in grid:
        x = Fraction(float(w))
        ref.append(float(m_const * sum(c * x**e for e, c in exact.items()) / (1 + x) ** params.t2))
    return np.array(ref)


def test_marginal_terms_single_permutation():
    # l = 1: one permutation pair, so the marginal is the single term
    # w^t1 (1+w)^-t2 / B(t1+1, t2-t1-1)
    params = law_params(3, 1, 4)
    assert _merged_exact(params.l, params.t1, params.t2) == {params.t1: Fraction(1)}
    grid = np.geomspace(1e-3, 1e3, 21)
    ref = _exact_pdf(params, grid)
    for evaluator in (marginal_pdf, marginal_pdf_reciprocal):
        np.testing.assert_allclose(evaluator(params, grid), ref, rtol=1e-11, atol=0.0)


def test_marginal_terms_merged_l2_anchor():
    # four permutation pairs with B(3,1) = 1/3, B(2,2) = 1/6, B(1,3) = 1/3
    # merge to +1/3, -1/3, +1/3 at exponents 0, 1, 2
    params = law_params(2, 2, 2)  # l=2, t1=0, t2=4
    expected = {0: Fraction(1, 3), 1: Fraction(-1, 3), 2: Fraction(1, 3)}
    assert _merged_exact(2, 0, 4) == expected
    grid = np.array([0.2, 0.9, 1.0, 3.7])
    # M = 6: the integral of (1 - w + w^2)/(3 (1+w)^4) over (0, inf) is 1/6
    ref = [6.0 * sum(float(c) * w**e for e, c in expected.items()) / (1.0 + w) ** 4 for w in grid]
    for evaluator in (marginal_pdf, marginal_pdf_reciprocal):
        np.testing.assert_allclose(evaluator(params, grid), ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("triple", [(2, 1, 2), (2, 2, 3), (3, 3, 3), (3, 2, 5), (4, 4, 4), (4, 3, 6)])
def test_marginal_terms_match_exact_enumeration(triple):
    # the density the permutation-pair terms sum to, at 1e-11 relative
    params = law_params(*triple)
    grid = np.geomspace(1e-3, 1e3, 21)
    ref = _exact_pdf(params, grid)
    for evaluator in (marginal_pdf, marginal_pdf_reciprocal):
        np.testing.assert_allclose(evaluator(params, grid), ref, rtol=1e-11, atol=0.0)


def _kernel_oracle(params, points):
    """Density and CDF at ``points`` from the exact rational G^-1, in 60 digits."""
    t1, t2 = params.t1, params.t2
    with mpmath.workdps(60):
        coeffs = [
            mpmath.mpf(c.numerator) / c.denominator
            for c in _kernel_exact(params.l, t1, t2)
        ]
        pdf_ref, cdf_ref = [], []
        for w in points:
            x = mpmath.mpf(float(w))
            pdf_ref.append(
                sum(c * x ** (t1 + e) for e, c in enumerate(coeffs)) * (1 + x) ** -t2
            )
            cdf_ref.append(
                sum(
                    c * mpmath.betainc(t1 + e + 1, t2 - t1 - e - 1, 0, x / (1 + x))
                    for e, c in enumerate(coeffs)
                )
            )
        return (
            np.array([float(v) for v in pdf_ref]),
            np.array([float(v) for v in cdf_ref]),
        )


@pytest.mark.parametrize(
    "triple",
    [(6, 6, 8), (7, 9, 12), (9, 7, 12), (8, 10, 12), (10, 12, 11), (15, 15, 16), (14, 7, 38),
     (2, 2, 2), (3, 1, 4), (3, 3, 4), (4, 2, 5)],
)
def test_kernel_matches_exact_oracle(triple):
    # exact rational G^-1, then 60-digit evaluation on a log grid and at
    # three points in the bulk; triple3 to triple6 reach l = 8, 10 and 15,
    # and t2 = 45, while the last four are low orders
    params = law_params(*triple)
    grid = np.union1d(np.geomspace(1e-3, 1e3, 61), [0.3, 1.0, 4.2])
    pdf_ref, cdf_ref = _kernel_oracle(params, grid)
    for evaluator in (marginal_pdf, marginal_pdf_reciprocal):
        assert np.all(np.abs(evaluator(params, grid) - pdf_ref) <= 1e-10 * pdf_ref)
    assert np.all(np.abs(marginal_cdf(params, grid) - cdf_ref) <= 1e-11)


def test_cdf_matches_exact_oracle_at_large_exponents():
    # t1 = 397, t2 = 903: signed monomial sums cancel past float accuracy
    # here, so only a cancellation-free evaluation meets the tolerance
    params = law_params(400, 3, 900)
    points = np.array([0.8, 1.0, 1.5])
    pdf_ref, cdf_ref = _kernel_oracle(params, points)
    assert np.all(np.abs(marginal_pdf(params, points) - pdf_ref) <= 1e-10 * pdf_ref)
    assert np.all(np.abs(marginal_cdf(params, points) - cdf_ref) <= 1e-11)


def test_marginal_large_exponents_stay_in_log_domain():
    # l = 1: the density is w^t1 (1+w)^-t2 / B(t1+1, t2-t1-1), and here the
    # normalized coefficient 1/B is about e^834, beyond float range
    params = law_params(600, 1, 1200)
    w = np.array([0.5, 1.0, 2.0])
    closed = np.exp(
        params.t1 * np.log(w)
        - params.t2 * np.log1p(w)
        - betaln(params.t1 + 1, params.t2 - params.t1 - 1)
    )
    np.testing.assert_allclose(marginal_pdf(params, w), closed, rtol=1e-10)
    np.testing.assert_allclose(marginal_pdf_reciprocal(params, w), closed, rtol=1e-10)


def _jacobi_pdf_oracle(params, points):
    """Density at ``points`` as a 60-digit sum of orthonormal Jacobi terms.

    With ``u = w/(1+w)``, ``a = t1`` and ``b = n' - m'``, the polynomials
    ``P_k(2u-1)`` of ``mpmath.jacobi(k, b, a, .)`` are orthogonal for
    ``u^a (1-u)^b`` on (0, 1) with squared norm
    ``G(k+a+1) G(k+b+1) / ((2k+a+b+1) G(k+a+b+1) k!)``.
    """
    a, b, l = params.t1, params.t1_reciprocal, params.l
    with mpmath.workdps(60):
        values = []
        for w in points:
            x = mpmath.mpf(float(w))
            u = x / (1 + x)
            total = sum(
                mpmath.jacobi(k, b, a, 2 * u - 1) ** 2
                * (2 * k + a + b + 1)
                * mpmath.gamma(k + a + b + 1)
                * mpmath.factorial(k)
                / (mpmath.gamma(k + a + 1) * mpmath.gamma(k + b + 1))
                for k in range(l)
            )
            values.append(float(u**a * (1 - u) ** b * total / (l * (1 + x) ** 2)))
        return np.array(values)


@pytest.mark.parametrize("triple", [(40, 40, 60), (60, 20, 80)])
def test_density_matches_jacobi_sum_at_high_order(triple):
    # recurrence orders 40 and 20 with b = 20, a = 0 and a = 40: past the
    # exact oracle's reach; measured at most 7.1e-14 relative
    params = law_params(*triple)
    grid = np.geomspace(1e-2, 1e2, 9)
    ref = _jacobi_pdf_oracle(params, grid)
    for evaluator in (marginal_pdf, marginal_pdf_reciprocal):
        np.testing.assert_allclose(evaluator(params, grid), ref, rtol=1e-12, atol=0.0)


def test_marginal_pdf_rejects_bad_points():
    params = law_params(2, 2, 2)
    with pytest.raises(DimensionError):
        marginal_pdf(params, 0.0)
    with pytest.raises(DimensionError):
        marginal_pdf(params, np.array([1.0, np.inf]))
    with pytest.raises(DimensionError, match="empty"):
        marginal_pdf(params, np.array([]))


@pytest.mark.parametrize("density", [marginal_pdf, marginal_pdf_reciprocal])
def test_scalar_density_matches_array_bit_for_bit(density):
    # a scalar point is a 0-d array on the same path, so it takes the same
    # IEEE steps; the benchmark's 198 triples on a 97-point grid
    grid = np.geomspace(1e-3, 1e3, 97)
    for m_prime in range(1, 7):
        for p in range(1, 7):
            for n_prime in range(m_prime, 9):
                params = law_params(m_prime, p, n_prime)
                values = density(params, grid)
                scalars = [density(params, float(w)) for w in grid]
                assert scalars == values.tolist(), (m_prime, p, n_prime)


@pytest.mark.parametrize("density", [marginal_pdf, marginal_pdf_reciprocal])
def test_scalar_density_point_types(density):
    params = law_params(3, 4, 6)
    expected = density(params, np.array([0.7, 2.0]))
    for point, value in ((0.7, expected[0]), (2, expected[1])):
        for form in (point, np.float64(point), np.array(point)):
            result = density(params, form)
            assert type(result) is float and result == value, form
    listed = density(params, [0.7])
    assert isinstance(listed, np.ndarray) and listed.shape == (1,) and listed[0] == expected[0]


@pytest.mark.parametrize("density", [marginal_pdf, marginal_pdf_reciprocal])
@pytest.mark.parametrize("point", [0.0, -0.0, -1.0, np.inf, -np.inf, np.nan])
def test_scalar_density_refuses_bad_points_as_the_array_path(density, point):
    params = law_params(2, 2, 3)
    with pytest.raises(DimensionError) as array_refusal:
        density(params, np.array([point]))
    for form in (point, np.float64(point), np.array(point)):
        with pytest.raises(DimensionError) as scalar_refusal:
            density(params, form)
        assert str(scalar_refusal.value) == str(array_refusal.value)


def test_marginal_cdf_rejects_bad_points():
    params = law_params(2, 2, 3)
    with pytest.raises(DimensionError, match="empty"):
        marginal_cdf(params, np.array([]))
    with pytest.raises(DimensionError):
        marginal_cdf(params, np.array([1.0, -1.0]))


def _cdf_run_hook(monkeypatch, edit):
    """Patch the CDF's run kernel so that ``edit(call, values)`` sees each run's values."""
    calls = []

    def hooked(table, w):
        calls.append(w.size)
        values = closed(table, w)
        edit(len(calls), values)
        return values

    closed = laws._closed_cdf
    monkeypatch.setattr(laws, "_closed_cdf", hooked)
    return calls


def test_cdf_refuses_a_run_that_leaves_the_unit_interval(monkeypatch):
    # the second of three runs leaves [0, 1] by 1e-6: beyond roundoff
    def edit(call, values):
        if call == 2:
            values[7] = 1.0 + 1e-6

    calls = _cdf_run_hook(monkeypatch, edit)
    grid = np.geomspace(1e-3, 1e3, 2 * (laws._BLOCK // 8) + 5)
    with pytest.raises(ConsistencyError, match="beyond roundoff"):
        marginal_cdf(law_params(2, 2, 3), grid)
    assert len(calls) == 2


def test_cdf_clips_roundoff_outside_the_unit_interval(monkeypatch):
    def edit(call, values):
        flat = values.reshape(-1)  # a view, also of a 0-d point's values
        flat[-1], flat[0] = 1.0 + 1e-9, -1e-9  # one point keeps the later -1e-9

    _cdf_run_hook(monkeypatch, edit)
    out = marginal_cdf(law_params(2, 2, 3), np.array([0.5, 1.0, 2.0]))
    assert out[0] == 0.0 and out[-1] == 1.0
    assert marginal_cdf(law_params(2, 2, 3), 0.5) == 0.0


@pytest.mark.parametrize("triple", [(6, 6, 8), (40, 40, 60)])
@pytest.mark.parametrize("evaluate", [marginal_pdf, marginal_pdf_reciprocal, marginal_cdf])
def test_runs_never_change_a_value(triple, evaluate):
    # one call over 3 CDF runs and 5 points equals the same evaluator on
    # run-sized slices, bit for bit, and a 2-d input keeps its shape
    params = law_params(*triple)
    run = laws._BLOCK // 8
    grid = np.geomspace(1e-3, 1e3, 3 * run + 5)
    whole = evaluate(params, grid)
    pieces = [evaluate(params, grid[i : i + run]) for i in range(0, grid.size, run)]
    np.testing.assert_array_equal(whole, np.concatenate(pieces))
    square = evaluate(params, grid[: 3 * run].reshape(3, run))
    assert square.shape == (3, run)
    np.testing.assert_array_equal(square.reshape(-1), whole[: 3 * run])


def test_cdf_run_length_does_not_shrink_with_the_order(monkeypatch):
    # at l = 150 a 2003-point grid is one run, which pays the ladder's
    # ~l^2 numpy calls once
    calls = _cdf_run_hook(monkeypatch, lambda call, values: None)
    values = marginal_cdf(law_params(150, 150, 150), np.geomspace(1e-3, 1e3, 2003))
    assert calls == [2003]
    assert np.all(np.diff(values) >= 0.0) and 0.0 <= values[0] and values[-1] <= 1.0


@pytest.mark.parametrize("evaluate", [marginal_pdf, marginal_pdf_reciprocal, marginal_cdf])
def test_a_value_beyond_float_range_is_refused(evaluate):
    # at l = 300, b = 3000 the polynomials pass 1e308 where the weight
    # underflows, away from the bulk: no NaN comes back, from an array or a
    # scalar, while a point in the bulk still evaluates
    params = law_params(300, 300, 3300)
    with np.errstate(all="ignore"):
        for w in (np.array([0.1, 0.5477225575051661, 3.0]), 3.0):
            with pytest.raises(ConsistencyError, match="not finite"):
                evaluate(params, w)
        assert math.isfinite(evaluate(params, 0.1))


# --------------------------------------------------------------- reciprocal


def test_reciprocal_anchor_self_reciprocal():
    params = law_params(2, 2, 2)  # m' = n' makes t1' = t1
    assert marginal_pdf_reciprocal(params, 1.0) == pytest.approx(0.125, abs=1e-12)


def test_reciprocal_anchor_212():
    params = law_params(2, 1, 2)
    expected = 2.0 * 2.0 / 27.0  # density 2w/(1+w)^3 at w = 2
    assert marginal_pdf(params, 2.0) == pytest.approx(expected, rel=1e-13)
    assert marginal_pdf_reciprocal(params, 2.0) == pytest.approx(expected, rel=1e-12)


def _assert_steps_reflect(l: int, a: int, b: int) -> None:
    # alpha'_k = 1 - alpha_k and beta'_k = beta_k turn each unit-factor step
    # (1/beta_{k+1}, alpha_k/beta_{k+1}, beta_k/beta_{k+1}) of (a, b) into
    # (inv, inv - shift, ratio) of (b, a); the betas are symmetric in a, b
    ones = (1.0,) * l
    steps, reflected = laws._steps(a, b, ones), laws._steps(b, a, ones)
    assert len(steps) == len(reflected) == l - 1
    for (inv, shift, ratio), (inv_r, shift_r, ratio_r) in zip(steps, reflected):
        assert (inv_r, ratio_r) == (inv, ratio)
        assert abs(shift_r - (inv - shift)) <= 1e-15 * inv


def test_reciprocal_terms_identical_when_exponents_coincide():
    # p = m' = n' forces t1 = |m'-p| = 0 = n'-m' = t1', so the reflection
    # maps the recurrence table to itself (alpha_k = 1/2) and only flips the
    # sign of the odd-degree p_k
    grid = np.geomspace(1e-3, 1e3, 21)
    for d in (2, 3, 4):
        params = law_params(d, d, d)
        assert params.t1_reciprocal == params.t1 == 0
        _assert_steps_reflect(params.l, params.t1, params.t1_reciprocal)
        np.testing.assert_allclose(
            marginal_pdf_reciprocal(params, grid), marginal_pdf(params, grid), rtol=1e-12, atol=0.0
        )


@pytest.mark.parametrize("l, a, b", [(2, 1, 0), (5, 3, 7), (8, 0, 2), (40, 0, 20), (20, 40, 20)])
def test_reflected_steps_swap_alpha_and_keep_beta(l, a, b):
    _assert_steps_reflect(l, a, b)


def test_reciprocal_identity_random_params():
    # 20 random triples with l <= 4, 100 log-spaced points each, both
    # against each other and against the exact rational density
    gen = np.random.default_rng(2718)
    grid = np.geomspace(1e-3, 1e3, 100)
    for _ in range(20):
        m_prime = int(gen.integers(1, 5))
        p = int(gen.integers(1, 5))
        n_prime = int(gen.integers(m_prime, 7))
        params = law_params(m_prime, p, n_prime)
        direct = marginal_pdf(params, grid)
        mirrored = marginal_pdf_reciprocal(params, grid)
        tol = 1e-9 * np.maximum(direct, 1e-300)
        assert np.all(np.abs(direct - mirrored) <= tol)
        # one recurrence serves both evaluators, so only the exact law checks it
        ref = _exact_pdf(params, grid)
        np.testing.assert_allclose(direct, ref, rtol=1e-11, atol=0.0)
        np.testing.assert_allclose(mirrored, ref, rtol=1e-11, atol=0.0)


# ---------------------------------------------------------------------- cdf


def test_cdf_anchor_111():
    # integral of (1+t)^-2 from 0 to 1 is exactly 1/2
    params = law_params(1, 1, 1)
    assert marginal_cdf(params, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_cdf_boundaries():
    params = law_params(2, 2, 2)
    assert marginal_cdf(params, 0.0) == 0.0
    assert marginal_cdf(params, np.inf) == pytest.approx(1.0, abs=1e-8)
    assert marginal_cdf(params, 1e14) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("triple", [(2, 2, 3), (1, 1, 1), (6, 6, 8), (400, 3, 900)])
def test_cdf_at_negative_zero_and_subnormal_points(triple):
    # -0.0 passes the domain check, and 1/w overflows at a subnormal w; the
    # value is +0.0's, with no refusal and no RuntimeWarning (an error under
    # the pytest settings), and every other point of the array is unchanged
    params = law_params(*triple)
    assert marginal_cdf(params, -0.0) == 0.0
    grid = np.array([-0.0, 0.0, 5e-324, 1e-310, 1e-300, 1.0, np.inf])
    values = marginal_cdf(params, grid)
    assert values[0] == values[1] == 0.0
    assert 0.0 <= values[2] <= values[3] <= values[4] < 1e-290
    np.testing.assert_array_equal(values, [marginal_cdf(params, w) for w in grid])
    np.testing.assert_array_equal(values[4:], marginal_cdf(params, grid[4:]))


def test_cdf_reciprocal_identity():
    # the law of 1/w swaps a = t1 and b = n' - m', so F(w) + F_R(1/w) = 1;
    # a point below the split of one table is above the split of the other,
    # so each half of the closed form is checked against the other
    grid = np.geomspace(1e-3, 1e3, 41)
    worst = 0.0
    for m_prime in range(1, 9):
        for p in range(1, 9):
            for n_prime in range(m_prime, 12):
                if p >= m_prime:
                    reflected = (m_prime, n_prime, p)
                else:
                    reflected = (p, p + n_prime - m_prime, m_prime)
                total = marginal_cdf(law_params(m_prime, p, n_prime), grid) + marginal_cdf(
                    law_params(*reflected), 1.0 / grid
                )
                worst = max(worst, float(np.max(np.abs(total - 1.0))))
    assert worst <= 1e-14


def test_cdf_monotone():
    params = law_params(3, 2, 4)
    grid = np.geomspace(1e-4, 1e4, 300)
    values = marginal_cdf(params, grid)
    assert np.all(np.diff(values) >= -1e-12)
    assert np.all((values >= 0.0) & (values <= 1.0))


@pytest.mark.parametrize("a, b", [(0, 0), (3, 9), (40, 2)])
def test_cdf_single_eigenvalue_is_the_beta_cdf(a, b):
    # l = 1: the ladder is empty and the CDF is I_u(a+1, b+1) alone
    params = law_params(1, 1 + a, 1 + b)
    assert (params.l, params.t1, params.t1_reciprocal) == (1, a, b)
    grid = np.geomspace(1e-3, 1e3, 61)
    with mpmath.workdps(40):
        ref = [
            float(mpmath.betainc(a + 1, b + 1, 0, x / (1 + x), regularized=True))
            for x in (mpmath.mpf(float(w)) for w in grid)
        ]
    np.testing.assert_allclose(marginal_cdf(params, grid), ref, rtol=0.0, atol=1e-14)


def test_cdf_table_memory_follows_the_kept_terms():
    # (1, 1, 10^6): b = 999999 neighbour ratios of the binomial tail, of
    # which a handful matter; the table never holds them all
    params = law_params(1, 1, 10**6)
    assert (params.l, params.t1, params.t1_reciprocal) == (1, 0, 999_999)
    tracemalloc.start()
    try:
        laws._cdf_table.__wrapped__(params.l, params.t1, params.t1_reciprocal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    grid = np.geomspace(1e-9, 1e-4, 11)
    with mpmath.workdps(40):
        ref = [
            float(mpmath.betainc(1, 10**6, 0, x / (1 + x), regularized=True))
            for x in (mpmath.mpf(float(w)) for w in grid)
        ]
    np.testing.assert_allclose(marginal_cdf(params, grid), ref, rtol=0.0, atol=1e-14)


def test_cdf_matches_exact_oracle_at_unbalanced_exponents():
    # a = 48, b = 70: the Beta part and the ladder both carry weight
    params = law_params(50, 2, 120)
    grid = np.geomspace(1e-3, 1e3, 61)
    _, cdf_ref = _kernel_oracle(params, grid)
    assert np.all(np.abs(marginal_cdf(params, grid) - cdf_ref) <= 1e-11)


@pytest.mark.parametrize("triple", [(20, 20, 40), (20, 15, 200), (10, 10, 300), (5, 5, 500)])
def test_cdf_matches_exact_oracle_at_large_order_and_unbalanced_exponents(triple):
    # l >= 5 with n' - m' >= 20: in one Jacobi basis the correction to
    # I_u(t1+1, n'-m'+1) has coefficients up to 1e6, so a single signed sum
    # would err by 1e-9; the ladder adds products of bounded functions.
    # The leading binomial term's log, summed as power log(rho) - n
    # log1p(rho), cancelled to 8e-14 absolute at (10, 10, 300)
    params = law_params(*triple)
    grid = np.geomspace(1e-3, 1e3, 21)
    _, cdf_ref = _kernel_oracle(params, grid)
    assert np.all(np.abs(marginal_cdf(params, grid) - cdf_ref) <= 1e-14)


def test_cdf_keeps_float_range_at_extreme_exponents():
    # n' - m' = 1490: the Beta weights are narrow and the polynomials large
    # at u = 1, yet every ladder term stays a product of bounded functions
    params = law_params(10, 10, 1500)
    points = np.geomspace(1e-4, 1e-1, 7)
    _, cdf_ref = _kernel_oracle(params, points)
    assert np.all(np.abs(marginal_cdf(params, points) - cdf_ref) <= 1e-11)
    values = marginal_cdf(params, np.geomspace(1e-6, 1e3, 400))
    assert np.all((values >= 0.0) & (values <= 1.0)) and np.all(np.diff(values) >= 0.0)


def _wachter_cdf(alpha: float, beta: float, u: np.ndarray) -> np.ndarray:
    """CDF of Wachter's limit density (Ann. Statist. 8, 1980) of the Jacobi
    ensemble ``u^a (1-u)^b`` at ``a = alpha l``, ``b = beta l``, ``l -> infinity``:
    ``(2+alpha+beta) sqrt((u-lo)(hi-u)) / (2 pi u (1-u))`` on ``[lo, hi]``.

    With ``u = lo + (hi-lo)(1-cos theta)/2`` the integrand is smooth in
    theta, so a 2e5-node trapezoid, normalized by its total, integrates it.
    """
    lo, hi = (
        (np.sqrt((1 + alpha) * (1 + alpha + beta)) + sign * np.sqrt(1 + beta)) ** 2
        / (2 + alpha + beta) ** 2
        for sign in (-1, 1)
    )
    theta = np.linspace(0.0, np.pi, 200_001)
    rise, fall = (hi - lo) * np.sin(theta / 2) ** 2, (hi - lo) * np.cos(theta / 2) ** 2
    # (u - lo) / u and (hi - u) / (1 - u); each tends to 1 where both vanish
    left = np.divide(rise, lo + rise, out=np.ones_like(theta), where=lo + rise > 0)
    right = np.divide(fall, 1 - hi + fall, out=np.ones_like(theta), where=1 - hi + fall > 0)
    density = (2 + alpha + beta) / (2 * np.pi) * left * right
    steps = np.diff(theta) * (density[1:] + density[:-1]) / 2
    cumulative = np.concatenate([[0.0], np.cumsum(steps)]) / steps.sum()
    at = 2 * np.arcsin(np.sqrt(np.clip((u - lo) / (hi - lo), 0.0, 1.0)))
    return np.interp(at, theta, cumulative)


def test_wachter_cdf_is_the_arcsine_law_at_zero_exponents():
    u = np.linspace(0.001, 0.999, 999)
    arcsine = 2 / np.pi * np.arcsin(np.sqrt(u))
    np.testing.assert_allclose(_wachter_cdf(0.0, 0.0, u), arcsine, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize(
    "triple", [(100, 100, 150), (100, 200, 300), (150, 150, 150), (300, 300, 310)]
)
def test_cdf_approaches_wachter_limit_at_large_order(triple):
    # a coarse independent check at l >= 100, where no exact oracle is
    # cheap: the finite-l CDF is within O(1/l) of the limit law (measured
    # l sup|F - F_inf| = 0.029, 0.030, 0.0088, 0.0052)
    params = law_params(*triple)
    a, b = params.t1, params.t1_reciprocal
    u = np.linspace(0.001, 0.999, 999)
    limit = _wachter_cdf(a / params.l, b / params.l, u)
    gap = np.max(np.abs(marginal_cdf(params, u / (1 - u)) - limit))
    assert params.l * gap <= 0.1, params.l * gap


def test_cdf_monotone_on_the_cli_grid():
    # the default CLI grid, every triple 1 <= m', p <= 6, m' <= n' <= 8:
    # values in [0, 1] and no decrease at all between neighbouring points
    grid = np.geomspace(1e-3, 1e3, 200)
    for m_prime in range(1, 7):
        for p in range(1, 7):
            for n_prime in range(m_prime, 9):
                values = marginal_cdf(law_params(m_prime, p, n_prime), grid)
                assert np.all((values >= 0.0) & (values <= 1.0)), (m_prime, p, n_prime)
                assert np.all(np.diff(values) >= 0.0), (m_prime, p, n_prime)


@pytest.mark.parametrize("triple", [(1, 1, 1), (3, 1, 4), (2, 5, 3), (6, 6, 8)])
def test_cdf_scalar_matches_array_and_endpoints_are_exact(triple):
    params = law_params(*triple)
    grid = np.geomspace(1e-4, 1e4, 101)
    values = marginal_cdf(params, grid)
    scalars = np.array([marginal_cdf(params, float(w)) for w in grid])
    np.testing.assert_array_equal(scalars, values)
    assert marginal_cdf(params, 0.0) == 0.0
    assert marginal_cdf(params, np.inf) == 1.0
    np.testing.assert_array_equal(marginal_cdf(params, np.array([0.0, np.inf])), [0.0, 1.0])


# ------------------------------------------------------------- consistency


def test_joint_marginal_consistency_l2():
    # integrating the second eigenvalue out of the joint density must
    # reproduce the marginal at the first
    for triple in [(2, 2, 2), (2, 2, 3)]:
        params = law_params(*triple)
        for w1 in np.geomspace(0.1, 5.0, 10):
            # joint_pdf takes one eigenvalue tuple; the rule passes node arrays
            integral = quadrature_integrate(
                lambda w2: np.array([joint_pdf(params, [w1, x]) for x in w2]), 1e-9
            )
            assert integral == pytest.approx(marginal_pdf(params, w1), abs=1e-6)


@pytest.mark.parametrize(
    "triple",
    [(1, 1, 2), (2, 2, 4), (2, 3, 3), (3, 2, 5), (3, 4, 6), (4, 4, 7), (5, 2, 9), (6, 6, 8),
     (10, 10, 14), (20, 5, 30), (40, 40, 60)],
)
def test_marginal_moments_match_exact_inverse_wishart_values(triple):
    # with W = y y^H complex Wishart and d = n' - m', E[W^-1] = I/d and
    # E[W^-2] = n' I / (d (d^2 - 1)) give E[w] and E[w^2] of one eigenvalue;
    # E[w] is also the integral of 1 - F, a check of the CDF with no density,
    # and E[u], u = w/(1+w), is the Jacobi ensemble's (a + l) / (a + b + 2l)
    m_prime, p, n_prime = triple
    params = law_params(*triple)
    l, a, b, d = params.l, params.t1, params.t1_reciprocal, n_prime - m_prime
    mean = Fraction(p * m_prime, l * d)
    rows = [
        (lambda w: w * marginal_pdf(params, w), mean),
        (lambda w: 1.0 - marginal_cdf(params, w), mean),
        (lambda w: w / (1.0 + w) * marginal_pdf(params, w), Fraction(a + l, a + b + 2 * l)),
    ]
    if d >= 2:
        second = Fraction(p * m_prime * (p * n_prime + d * m_prime + 1), l * d * (d * d - 1))
        rows.append((lambda w: w * w * marginal_pdf(params, w), second))
    for f, exact in rows:
        assert quadrature_integrate(f, 1e-10) == pytest.approx(float(exact), rel=1e-11)


def test_law_triple_is_validated_by_reduced_dims_alone():
    # law_params and log_norm_constant accept and refuse exactly the triples
    # ReducedDims does, with the same exception type
    def outcome(make, triple):
        try:
            make(*triple)
        except Exception as exc:  # the type is what is compared
            return type(exc)
        return None

    refused = 0
    for triple in ((mp, p, npr) for mp in range(6) for p in range(6) for npr in range(6)):
        want = outcome(ReducedDims, triple)
        assert outcome(law_params, triple) is want, triple
        assert outcome(log_norm_constant, triple) is want, triple
        refused += want is not None
        if want is None:
            assert law_params(*triple).l == ReducedDims(*triple).l
    # accepted: five values of p times the 15 pairs 1 <= m' <= n' <= 5
    assert refused == 6**3 - 5 * 15

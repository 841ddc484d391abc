"""Closed-form law anchors against independent rational and quadrature oracles.

The reference oracles here work in exact ``fractions.Fraction`` arithmetic
(Beta functions of integer arguments are rational): one enumerates the
permutation-pair sum, the other inverts the Hankel moment matrix of the
kernel.  Both expand the marginal in monomials of ``w``, entirely separate
from the package's orthonormal Jacobi basis and its log-domain
floating-point machinery.
"""

import math
from fractions import Fraction
from itertools import permutations

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betaln

from gsvdist import (
    joint_pdf,
    law_params,
    log_mvgamma,
    log_norm_constant,
    marginal_cdf,
    marginal_pdf,
    marginal_pdf_reciprocal,
    quadrature_integrate,
)
from gsvdist.errors import ConsistencyError, DimensionError, PoleError


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


# --------------------------------------------------------------- mvgamma / M


def test_log_mvgamma_anchors():
    assert log_mvgamma(1, 3) == pytest.approx(math.log(2.0), abs=1e-14)
    assert log_mvgamma(2, 2) == pytest.approx(math.log(math.pi), abs=1e-14)
    assert log_mvgamma(2, 4) == pytest.approx(math.log(12.0 * math.pi), abs=1e-14)


def test_log_mvgamma_pole():
    with pytest.raises(PoleError):
        log_mvgamma(2, 1.0)
    with pytest.raises(PoleError):
        log_mvgamma(3, 2)


def test_norm_constant_quadrature_oracle_111():
    # density (1+w)^-2 integrates to one, so M(1,1,1) must be 1
    integral = quadrature_integrate(lambda w: (1.0 + w) ** -2, 1e-10)
    assert integral == pytest.approx(1.0, abs=1e-8)
    assert np.exp(log_norm_constant(1, 1, 1)) == pytest.approx(1.0, abs=1e-10)


def test_norm_constant_quadrature_oracle_212():
    # density 2w/(1+w)^3 integrates to one, so M(2,1,2) must be 2
    integral = quadrature_integrate(lambda w: 2.0 * w / (1.0 + w) ** 3, 1e-10)
    assert integral == pytest.approx(1.0, abs=1e-8)
    assert np.exp(log_norm_constant(2, 1, 2)) == pytest.approx(2.0, abs=1e-10)


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
    [(6, 6, 8), (7, 9, 12), (9, 7, 12), (8, 10, 12), (10, 12, 11), (15, 15, 16), (14, 7, 38)],
)
def test_kernel_matches_exact_oracle(triple):
    # exact rational G^-1, then 60-digit evaluation on a log grid; the last
    # four triples reach l = 8, 10 and 15, and t2 = 45
    params = law_params(*triple)
    grid = np.geomspace(1e-3, 1e3, 61)
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


def test_marginal_pdf_rejects_bad_points():
    params = law_params(2, 2, 2)
    with pytest.raises(DimensionError):
        marginal_pdf(params, 0.0)
    with pytest.raises(DimensionError):
        marginal_pdf(params, np.array([1.0, np.inf]))


# --------------------------------------------------------------- reciprocal


def test_reciprocal_anchor_self_reciprocal():
    params = law_params(2, 2, 2)  # m' = n' makes t1' = t1
    assert marginal_pdf_reciprocal(params, 1.0) == pytest.approx(0.125, abs=1e-12)


def test_reciprocal_anchor_212():
    params = law_params(2, 1, 2)
    expected = 2.0 * 2.0 / 27.0  # density 2w/(1+w)^3 at w = 2
    assert marginal_pdf(params, 2.0) == pytest.approx(expected, rel=1e-13)
    assert marginal_pdf_reciprocal(params, 2.0) == pytest.approx(expected, rel=1e-12)


def test_reciprocal_terms_identical_when_exponents_coincide():
    # p = m' = n' forces t1 = |m'-p| = 0 = n'-m' = t1', so the two
    # evaluators share the exact recurrence table, and the reflection
    # u -> 1 - u only flips the sign of the odd-degree p_k
    from gsvdist.laws import _recurrence

    grid = np.geomspace(1e-3, 1e3, 21)
    for d in (2, 3, 4):
        params = law_params(d, d, d)
        assert params.t1_reciprocal == params.t1 == 0
        assert _recurrence(params.l, params.t1, params.t1_reciprocal) == _recurrence(
            params.l, params.t1_reciprocal, params.t1
        )
        np.testing.assert_allclose(
            marginal_pdf_reciprocal(params, grid), marginal_pdf(params, grid), rtol=1e-12, atol=0.0
        )


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


def test_cdf_monotone():
    params = law_params(3, 2, 4)
    grid = np.geomspace(1e-4, 1e4, 300)
    values = marginal_cdf(params, grid)
    assert np.all(np.diff(values) >= -1e-12)
    assert np.all((values >= 0.0) & (values <= 1.0))


@pytest.mark.parametrize("a, b", [(0, 0), (3, 9), (40, 2)])
def test_cdf_single_eigenvalue_is_the_beta_cdf(a, b):
    # l = 1: the Jacobi sum is empty and the CDF is I_u(a+1, b+1) alone
    params = law_params(1, 1 + a, 1 + b)
    assert (params.l, params.t1, params.t1_reciprocal) == (1, a, b)
    grid = np.geomspace(1e-3, 1e3, 61)
    with mpmath.workdps(40):
        ref = [
            float(mpmath.betainc(a + 1, b + 1, 0, x / (1 + x), regularized=True))
            for x in (mpmath.mpf(float(w)) for w in grid)
        ]
    np.testing.assert_allclose(marginal_cdf(params, grid), ref, rtol=0.0, atol=1e-14)


def test_cdf_matches_exact_oracle_at_unbalanced_exponents():
    # a = 48, b = 70: the Beta part and the Jacobi sum both carry weight
    params = law_params(50, 2, 120)
    grid = np.geomspace(1e-3, 1e3, 61)
    _, cdf_ref = _kernel_oracle(params, grid)
    assert np.all(np.abs(marginal_cdf(params, grid) - cdf_ref) <= 1e-11)


@pytest.mark.parametrize("triple", [(20, 20, 40), (20, 15, 200)])
def test_cdf_lowers_its_beta_exponents_for_an_ill_conditioned_sum(triple):
    # l >= 15 with n' - m' >= 20: with the leading part I_u(t1+1, n'-m'+1)
    # the Jacobi sum's coefficients reach 1e6 and the error 1e-9, so the
    # table lowers the exponents of the Beta part
    from gsvdist.laws import _cdf_table

    params = law_params(*triple)
    a, b = params.t1, params.t1_reciprocal
    assert _cdf_table(params.l, a, b).power != (a + 1, b + 1)
    grid = np.geomspace(1e-3, 1e3, 21)
    _, cdf_ref = _kernel_oracle(params, grid)
    assert np.all(np.abs(marginal_cdf(params, grid) - cdf_ref) <= 1e-12)


def test_cdf_keeps_float_range_at_extreme_exponents():
    # n' - m' = 1490: every lowered choice would overflow on [0, 1], so the
    # table keeps I_u(t1+1, n'-m'+1) and its ill-conditioned sum
    params = law_params(10, 10, 1500)
    points = np.geomspace(1e-4, 1e-1, 7)
    _, cdf_ref = _kernel_oracle(params, points)
    assert np.all(np.abs(marginal_cdf(params, points) - cdf_ref) <= 1e-9)
    values = marginal_cdf(params, np.geomspace(1e-6, 1e3, 400))
    assert np.all((values >= 0.0) & (values <= 1.0)) and np.all(np.diff(values) >= 0.0)


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


@pytest.mark.parametrize("triple", [(2, 2, 2), (3, 1, 4), (3, 3, 4), (4, 2, 5)])
def test_cdf_matches_quadrature_of_pdf(triple):
    # independent numeric path: integrate the density directly
    params = law_params(*triple)
    for w in [0.3, 1.0, 4.2]:
        numeric, err = quad(
            lambda t: marginal_pdf(params, t), 0.0, w,
            epsabs=1e-11, epsrel=1e-11, limit=200,
        )
        assert err < 1e-9
        assert marginal_cdf(params, w) == pytest.approx(numeric, abs=1e-8)


# ------------------------------------------------------------- consistency


def test_joint_marginal_consistency_l2():
    # integrating the second eigenvalue out of the joint density must
    # reproduce the marginal at the first
    for triple in [(2, 2, 2), (2, 2, 3)]:
        params = law_params(*triple)
        for w1 in np.geomspace(0.1, 5.0, 10):
            integral = quadrature_integrate(
                lambda w2: joint_pdf(params, [w1, w2]), 1e-9
            )
            assert integral == pytest.approx(marginal_pdf(params, w1), abs=1e-6)


def test_normalization_subset():
    # spot checks here; the full sweep lives in the acceptance suite
    for triple in [(1, 1, 1), (2, 1, 3), (2, 2, 3), (3, 3, 3), (4, 1, 6)]:
        params = law_params(*triple)
        integral = quadrature_integrate(lambda w: marginal_pdf(params, w), 1e-8)
        assert integral == pytest.approx(1.0, abs=1e-6)

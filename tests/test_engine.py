"""Structure arithmetic, spectrum extraction, and factorization contracts."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gsvdist import (
    ProblemDims,
    ReducedDims,
    Regime,
    RngStream,
    compute_structure,
    expected_q_power,
    gsvd_factorize,
    gsvd_spectrum,
    gsvd_spectrum_direct,
    q_power_trace,
    reduced_dims,
    sample_ginibre,
    sample_haar_unitary,
)
from gsvdist.engine import _stack_cosines, _stack_power, _stack_ratio
from gsvdist.errors import (
    DecompositionError,
    DegeneracyError,
    DimensionError,
    RegimeError,
    SingularityError,
)


def _pair(dims, seed):
    m, q, n = dims
    gen = RngStream(seed).generator()
    return sample_ginibre(m, n, gen), sample_ginibre(q, n, gen)


# ---------------------------------------------------------------- structure


@pytest.mark.parametrize(
    "dims, expected",
    [
        ((2, 3, 2), (2, 0, 2, Regime.TALL_C)),
        ((2, 3, 4), (4, 1, 1, Regime.INTERMEDIATE)),
        ((2, 3, 6), (5, 2, 0, Regime.DETERMINISTIC)),
    ],
)
def test_structure_examples(dims, expected):
    st_ = compute_structure(ProblemDims(*dims))
    assert (st_.k, st_.r, st_.s, st_.regime) == expected


def test_structure_exhaustive_scan():
    for m in range(1, 13):
        for q in range(m, 13):
            for n in range(1, 13):
                dims = ProblemDims(m, q, n)
                st_ = compute_structure(dims)
                assert st_.r + st_.s == min(m, n)
                assert st_.k - st_.r - st_.s == min(q, n) - st_.s >= 0
                assert st_.r + st_.s <= st_.k
                assert (st_.s == 0) == (st_.regime is Regime.DETERMINISTIC)
                rd = reduced_dims(dims)
                if st_.regime is Regime.DETERMINISTIC:
                    assert rd is None
                else:
                    assert rd.m_prime <= rd.n_prime
                    assert min(rd.p, rd.m_prime) == st_.s


@given(
    m=st.integers(min_value=1, max_value=40),
    extra=st.integers(min_value=0, max_value=40),
    n=st.integers(min_value=1, max_value=90),
)
@settings(max_examples=200, deadline=None)
def test_structure_formulas_hypothesis(m, extra, n):
    q = m + extra
    st_ = compute_structure(ProblemDims(m, q, n))
    assert st_.k == min(m + q, n)
    assert st_.r == min(m + q, n) - min(q, n)
    assert st_.s == min(m, n) + min(q, n) - min(m + q, n)


@pytest.mark.parametrize(
    "dims, expected",
    [
        ((2, 3, 2), (2, 2, 3)),
        ((2, 3, 4), (3, 1, 4)),
        ((4, 5, 3), (3, 4, 5)),
        ((3, 4, 5), (4, 2, 5)),
    ],
)
def test_reduced_dims_examples(dims, expected):
    rd = reduced_dims(ProblemDims(*dims))
    assert rd.as_tuple() == expected


def test_reduced_dims_deterministic_marker():
    assert reduced_dims(ProblemDims(2, 3, 6)) is None


def test_q_less_than_m_rejected_with_swap_guidance():
    with pytest.raises(DimensionError, match="swap"):
        ProblemDims(3, 2, 4)


# ----------------------------------------------------------------- spectrum


@pytest.mark.parametrize("dims", [(2, 3, 2), (2, 3, 3), (2, 3, 4), (3, 4, 5), (3, 4, 6), (4, 5, 3)])
def test_spectrum_count_across_regimes(dims):
    # 1000 draws total across the regime-boundary-adjacent dimension grid
    s = compute_structure(ProblemDims(*dims)).s
    for seed in range(167):
        a, c = _pair(dims, 1000 + seed)
        spectrum = gsvd_spectrum(a, c)
        assert len(spectrum) == s
        assert np.all(spectrum.w > 0.0)
        assert np.all(np.diff(spectrum.w) <= 0.0)


def test_spectrum_refuses_deterministic_regime():
    a, c = _pair((2, 3, 6), 5)
    with pytest.raises(RegimeError):
        gsvd_spectrum(a, c)


def test_spectrum_scaling():
    for seed, scale in [(3, 2.0), (4, 0.25), (5, 1.5 - 0.7j)]:
        a, c = _pair((2, 3, 2), seed)
        base = gsvd_spectrum(a, c).w
        scaled = gsvd_spectrum(scale * a, c).w
        np.testing.assert_allclose(scaled, abs(scale) ** 2 * base, rtol=1e-8)


def test_spectrum_matches_direct_route():
    for dims in [(2, 3, 2), (3, 4, 2), (3, 5, 4)]:
        for seed in range(10):
            a, c = _pair(dims, 50 + seed)
            np.testing.assert_allclose(
                gsvd_spectrum(a, c).w, gsvd_spectrum_direct(a, c).w, rtol=1e-8
            )


def test_direct_route_identity_gram():
    # orthonormal columns of c make its Gram matrix the identity, so the
    # w values reduce to the nonzero eigenvalues of a^H a
    gen = RngStream(8).generator()
    c = sample_haar_unitary(4, gen)[:, :3]  # 4x3, c^H c = I
    a = sample_ginibre(2, 3, gen)
    spectrum = gsvd_spectrum_direct(a, c)
    evals = np.linalg.eigvalsh(a.conj().T @ a)[::-1][:2]
    np.testing.assert_allclose(spectrum.w, evals, rtol=1e-10)
    assert np.all((spectrum.alphas**2 > 0) & (spectrum.alphas**2 < 1))


def test_direct_route_regime_restriction():
    a, c = _pair((2, 3, 4), 6)
    with pytest.raises(RegimeError):
        gsvd_spectrum_direct(a, c)


def test_direct_route_rejects_rank_deficient_gram():
    # q >= n with c of rank < n: one Gram the Cholesky factorization refuses,
    # and one it factors with a pivot below the rank test; both raise the
    # power kernel's class
    assert issubclass(SingularityError, DecompositionError)
    gen = RngStream(9).generator()
    a = sample_ginibre(2, 4, gen)
    c = sample_ginibre(5, 2, gen) @ sample_ginibre(2, 4, gen)
    with pytest.raises(SingularityError):
        gsvd_spectrum_direct(a, c)
    c = np.array([[1.0, 0.0], [0.0, 1e-7], [0.0, 0.0]])
    with pytest.raises(SingularityError):
        gsvd_spectrum_direct(np.ones((2, 2)), c)


def test_spectrum_rejects_rank_deficient_stack():
    col = np.ones((5, 1), dtype=complex)
    row = np.ones((1, 4), dtype=complex)
    b = col @ row  # rank one
    with pytest.raises(DecompositionError):
        gsvd_spectrum(b[:2], b[2:])


def _known_pair(dims, alphas, gen):
    # a = U sigma_a X^-1 and c = V sigma_c X^-1 with Haar U, V and X of
    # condition number 10, so the generalized cosines are exactly `alphas`
    m, q, n = dims
    st_ = compute_structure(ProblemDims(*dims))
    r, s = st_.r, st_.s
    sigma_a = np.zeros((m, n))
    sigma_a[np.arange(r + s), np.arange(r + s)] = np.r_[np.ones(r), alphas]
    sigma_c = np.zeros((q, n))
    cols = np.arange(r, n)
    sines = np.r_[np.sqrt(1.0 - alphas**2), np.ones(n - r - s)]
    sigma_c[q - (n - r) + cols - r, cols] = sines
    x = (
        sample_haar_unitary(n, gen)
        @ np.diag(np.geomspace(1.0, 10.0, n))
        @ sample_haar_unitary(n, gen)
    )
    x_inv = np.linalg.inv(x)
    u, v = sample_haar_unitary(m, gen), sample_haar_unitary(q, gen)
    return u @ sigma_a @ x_inv, v @ sigma_c @ x_inv


@pytest.mark.parametrize("dims", [(2, 3, 2), (4, 5, 3), (3, 4, 5), (2, 3, 4)])
def test_spectrum_recovers_known_values(dims):
    s = compute_structure(ProblemDims(*dims)).s
    gen = RngStream(4242).generator()
    for trial in range(25):
        if trial == 0:
            alphas = np.geomspace(0.99, 1e-4, s) if s > 1 else np.array([1e-4])
        else:
            alphas = np.sort(10.0 ** gen.uniform(-4.0, np.log10(0.99), s))[::-1]
        a, c = _known_pair(dims, alphas, gen)
        np.testing.assert_allclose(
            gsvd_spectrum(a, c).w, alphas**2 / (1.0 - alphas**2), rtol=1e-10
        )


def test_stack_kernel_masks_only_the_rank_deficient_row():
    dims = ProblemDims(2, 3, 2)
    st_ = compute_structure(dims)
    gen = RngStream(17).generator()
    b = sample_ginibre(5, 2, gen, count=4)
    b[2] = np.ones((5, 1)) @ np.ones((1, 2))  # rank one
    alphas, ok, full_rank = _stack_cosines(b, dims.m, st_)
    assert alphas.shape == (4, st_.s)
    np.testing.assert_array_equal(ok, [True, True, False, True])
    np.testing.assert_array_equal(full_rank, ok)


def test_ratio_kernel_masks_only_the_zero_y_row():
    gen = RngStream(18).generator()
    x = sample_ginibre(3, 2, gen, count=4)
    y = sample_ginibre(3, 4, gen, count=4)
    y[1] = 0.0
    w, ok = _stack_ratio(x, y, 2)
    assert w.shape == (4, 2)
    np.testing.assert_array_equal(ok, [True, False, True, True])


def test_power_kernel_masks_only_the_zero_stack_row():
    gen = RngStream(19).generator()
    for rows, cols in [(5, 2), (4, 8)]:
        b = sample_ginibre(rows, cols, gen, count=4)
        b[3] = 0.0
        totals, ok = _stack_power(b)
        assert totals.shape == (4,)
        np.testing.assert_array_equal(ok, [True, True, True, False])


def test_power_kernel_matches_reciprocal_eigenvalue_sum():
    # 1000 random non-square stacks with dims <= 8 (q_power_trace refuses
    # square ones), against the sum of reciprocal Gram eigenvalues
    gen = RngStream(20).generator()
    for _ in range(1000):
        rows, cols = (int(v) for v in gen.choice(np.arange(1, 9), 2, replace=False))
        b = sample_ginibre(rows, cols, gen)
        gram = b.conj().T @ b if cols < rows else b @ b.conj().T
        totals, ok = _stack_power(b[None])
        assert ok[0]
        ref = np.sum(1.0 / np.linalg.eigvalsh(gram))
        assert abs(totals[0] - ref) <= 1e-10 * ref


def test_spectrum_rejects_cosine_in_zero_dead_zone():
    # a full-rank stack whose second cosine lies below ZERO_TOL
    a, c = _known_pair((2, 3, 2), np.array([0.5, 1e-10]), RngStream(5).generator())
    with pytest.raises(DegeneracyError):
        gsvd_spectrum(a, c)


def test_spectrum_rejects_column_mismatch():
    with pytest.raises(DimensionError):
        gsvd_spectrum(np.eye(2), np.eye(3))


def test_pencil_characterization():
    # the generalized eigenpairs carry beta^2 a^H a x = alpha^2 c^H c x
    for seed in range(10):
        a, c = _pair((2, 3, 2), 300 + seed)
        spectrum = gsvd_spectrum(a, c)
        aa = a.conj().T @ a
        cc = c.conj().T @ c
        evals, evecs = scipy.linalg.eigh(aa, cc)
        order = np.argsort(evals)[::-1]
        evals, evecs = evals[order], evecs[:, order]
        np.testing.assert_allclose(evals[: len(spectrum)], spectrum.w, rtol=1e-8)
        for i in range(len(spectrum)):
            x = evecs[:, i]
            lhs = spectrum.betas[i] ** 2 * (aa @ x)
            rhs = spectrum.alphas[i] ** 2 * (cc @ x)
            assert np.linalg.norm(lhs - rhs) < 1e-6 * max(np.linalg.norm(lhs), 1e-300)


# ------------------------------------------------------------- factorization


def _factor_residuals(a, c):
    f = gsvd_factorize(a, c)
    m, n = a.shape
    q = c.shape[0]
    k = f.structure.k
    pad_a = np.hstack([f.sigma_a, np.zeros((m, n - k))])
    pad_c = np.hstack([f.sigma_c, np.zeros((q, n - k))])
    scale = 1.0 + np.linalg.norm(a) + np.linalg.norm(c)
    return f, {
        "recon_a": np.linalg.norm(f.u @ a @ f.qmat - pad_a) / scale,
        "recon_c": np.linalg.norm(f.v @ c @ f.qmat - pad_c) / scale,
        "unitary_u": np.linalg.norm(f.u @ f.u.conj().T - np.eye(m)),
        "unitary_v": np.linalg.norm(f.v @ f.v.conj().T - np.eye(q)),
        "cs_identity": np.linalg.norm(
            f.sigma_a.T @ f.sigma_a + f.sigma_c.T @ f.sigma_c - np.eye(k)
        ),
    }


@pytest.mark.parametrize(
    "dims", [(2, 3, 2), (2, 3, 4), (2, 3, 6), (4, 5, 3), (3, 4, 5), (33, 40, 50), (40, 50, 45)]
)
def test_factorize_invariants(dims):
    for seed in range(10):
        a, c = _pair(dims, 700 + seed)
        f, res = _factor_residuals(a, c)
        assert res["recon_a"] < 1e-8 and res["recon_c"] < 1e-8
        assert res["unitary_u"] < 1e-10 and res["unitary_v"] < 1e-10
        assert res["cs_identity"] < 1e-10
        st_ = f.structure
        diag = np.diag(f.sigma_a)
        if st_.s:
            alphas = diag[st_.r : st_.r + st_.s]
            np.testing.assert_allclose(alphas, gsvd_spectrum(a, c).alphas, rtol=1e-8)
        else:
            with pytest.raises(RegimeError):
                gsvd_spectrum(a, c)


def test_factorize_trace_matches_power():
    for dims in [(2, 3, 2), (2, 3, 4), (2, 2, 8), (3, 4, 5)]:
        a, c = _pair(dims, 900)
        f = gsvd_factorize(a, c)
        direct = float(np.trace(f.qmat @ f.qmat.conj().T).real)
        assert abs(direct - q_power_trace(a, c)) < 1e-6 * direct


# ------------------------------------------------------------------ q power


def test_q_power_orthonormal_stack():
    # orthonormal-column stack: every eigenvalue is one, so the sum is n
    gen = RngStream(21).generator()
    n = 3
    basis = sample_haar_unitary(5, gen)[:, :n]
    a, c = basis[:2], basis[2:]
    assert abs(q_power_trace(a, c) - n) < 1e-10


def test_q_power_scaling():
    a, c = _pair((2, 3, 2), 31)
    base = q_power_trace(a, c)
    scaled = q_power_trace(2.0 * a, 2.0 * c)
    assert abs(scaled - base / 4.0) < 1e-10 * base


def test_q_power_monte_carlo_mean():
    # closed-form mean at (2,2,8) is min(4,8)/|4-8| = 1
    from gsvdist import sample_q_power

    batch = sample_q_power(ProblemDims(2, 2, 8), 30_000, RngStream(12))
    vals = batch.values[:, 0]
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 1.0) < 3.0 * se


def test_q_power_rejects_rank_deficient_stack():
    b = np.ones((5, 1), dtype=complex) @ np.ones((1, 2), dtype=complex)
    with pytest.raises(SingularityError):
        q_power_trace(b[:2], b[2:])


def test_q_power_rejects_square_stack():
    a, c = _pair((2, 2, 4), 2)
    with pytest.raises(RegimeError):
        q_power_trace(a, c)


@pytest.mark.parametrize(
    "dims, value", [((2, 2, 8), 1.0), ((3, 3, 2), 0.5), ((2, 3, 4), 4.0)]
)
def test_expected_q_power_values(dims, value):
    assert expected_q_power(ProblemDims(*dims)) == pytest.approx(value, abs=1e-14)


def test_expected_q_power_undefined():
    with pytest.raises(RegimeError):
        expected_q_power(ProblemDims(2, 2, 4))


def test_reduced_dims_validation():
    with pytest.raises(DimensionError):
        ReducedDims(3, 1, 2)  # m' > n'

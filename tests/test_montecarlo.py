"""Sampler contracts, KS machinery, and the experiment harness."""

import json
import os
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from gsvdist import (
    Experiment,
    GsvdSpectrum,
    ProblemDims,
    ReducedDims,
    RngStream,
    SampleBatch,
    SamplerId,
    alpha_sq_to_w,
    expected_q_power,
    gsvd_factorize,
    gsvd_spectrum,
    ks_one_sample,
    ks_two_sample,
    law_params,
    marginal_cdf,
    mean_report,
    q_power_trace,
    quadrature_integrate,
    reduced_dims,
    run_experiment,
    sample_alpha_haar,
    sample_ginibre,
    sample_haar_unitary,
    sample_q_power,
    sample_w_fmatrix,
    sample_w_gsvd,
    scalar_samples,
)
from gsvdist.engine import _stack_cosines, _top_cosines, compute_structure
from gsvdist.errors import (
    DecompositionError,
    DegeneracyError,
    DimensionError,
    GsvdistError,
    ParameterError,
    RegimeError,
)
from gsvdist.montecarlo import CHUNK, _chunk_sizes, _run_batch, ks_critical_constant


# ----------------------------------------------------------------- samplers


def test_gsvd_batch_contract():
    batch = sample_w_gsvd(ProblemDims(2, 3, 2), 10, RngStream(1))
    assert batch.values.shape == (10, 2)
    assert np.all(batch.values > 0.0)
    assert batch.sampler_id is SamplerId.GSVD


def test_gsvd_batch_determinism():
    a = sample_w_gsvd(ProblemDims(2, 3, 2), 25, RngStream(9, 4))
    b = sample_w_gsvd(ProblemDims(2, 3, 2), 25, RngStream(9, 4))
    np.testing.assert_array_equal(a.values, b.values)


def test_gsvd_batch_workers_deterministic():
    # three chunks, the last one partial: the draws depend on the seed alone
    count = 2 * CHUNK + 31
    batches = [
        sample_w_gsvd(ProblemDims(2, 3, 4), count, RngStream(5), workers=workers)
        for workers in (1, 2, 3, 50)
    ]
    assert _chunk_sizes(count) == [CHUNK, CHUNK, 31]
    assert batches[0].values.shape == (count, 1)
    for batch in batches[1:]:
        np.testing.assert_array_equal(
            batch.values.view(np.uint64), batches[0].values.view(np.uint64)
        )


def test_batch_threads_are_capped_at_the_core_count(monkeypatch):
    # 50 requested workers on 3 chunks: 2 threads on 2 cores, 3 on 64; one
    # requested worker: 1 thread.  A serial stand-in for the pool records the
    # cap and starts no thread.
    import threading

    import gsvdist.montecarlo as mc

    caps = []

    class SerialPool:
        def __init__(self, max_workers):
            caps.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", SerialPool)
    threads = threading.active_count()
    batches = []
    for cores, workers in ((2, 50), (64, 50), (64, 1)):
        monkeypatch.setattr(mc.os, "cpu_count", lambda: cores)
        batches.append(
            sample_w_gsvd(ProblemDims(2, 3, 4), 3 * CHUNK, RngStream(5), workers=workers)
        )
    # one path: a workers = 1 batch runs on a pool of one thread
    assert caps == [2, 3, 1] and threading.active_count() == threads
    # the cap leaves the chunks, and so the draws, as they were
    for batch in batches[1:]:
        np.testing.assert_array_equal(batch.values, batches[0].values)


def test_gsvd_refuses_deterministic_regime():
    with pytest.raises(RegimeError):
        sample_w_gsvd(ProblemDims(2, 3, 6), 5, RngStream(0))


def test_gsvd_batch_matches_per_draw_reduction():
    # replay the vectorized chunk's own draw order and reduce one pair at
    # a time through the reference spectrum path
    dims = ProblemDims(2, 3, 2)
    count = 16
    batch = sample_w_gsvd(dims, count, RngStream(77))
    gen = RngStream(77).substream(0).generator()
    a = sample_ginibre(dims.m, dims.n, gen, count=count)
    c = sample_ginibre(dims.q, dims.n, gen, count=count)
    for i in range(count):
        np.testing.assert_allclose(
            batch.values[i], gsvd_spectrum(a[i], c[i]).w, rtol=1e-10
        )


def test_fmatrix_batch_contract():
    batch = sample_w_fmatrix(ReducedDims(2, 2, 3), 10, RngStream(2))
    assert batch.values.shape == (10, 2)
    assert np.all(batch.values > 0.0)


def test_fmatrix_singular_gram_discards_only_its_draw(monkeypatch):
    # one zero y makes one Gram matrix singular; only that draw is dropped,
    # and 2000 draws keep one failure under the 0.1% batch limit
    import gsvdist.montecarlo as mc

    rdims = ReducedDims(2, 2, 3)
    zeroed = []

    def one_zero_y(rows, cols, rng, count=None):
        z = sample_ginibre(rows, cols, rng, count=count)
        if cols == rdims.n_prime and not zeroed:
            z[0] = 0.0
            zeroed.append(True)
        return z

    monkeypatch.setattr(mc, "sample_ginibre", one_zero_y)
    batch = mc.sample_w_fmatrix(rdims, 2000, RngStream(3))
    assert zeroed and batch.failures == 1
    assert batch.values.shape == (2000, 2) and np.all(batch.values > 0.0)


@pytest.mark.parametrize("triple", [(3, 4, 5), (10, 6, 12)])
@pytest.mark.parametrize("workers", [1, 2])
def test_fmatrix_matches_the_inline_formula_bit_for_bit(triple, workers):
    # the ratio eigenvalues written out step by step (Cholesky of y y^H, a
    # solve, z^H z, eigvalsh), fixed chunk i drawn from substream i
    rdims = ReducedDims(*triple)
    count, rng = CHUNK + 600, RngStream(5)
    batch = sample_w_fmatrix(rdims, count, rng, workers=workers)
    chunks = []
    for i, size in enumerate([CHUNK, 600]):
        gen = rng.substream(i).generator()
        x = sample_ginibre(rdims.m_prime, rdims.p, gen, count=size)
        y = sample_ginibre(rdims.m_prime, rdims.n_prime, gen, count=size)
        z = np.linalg.solve(np.linalg.cholesky(y @ y.conj().transpose(0, 2, 1)), x)
        evals = np.linalg.eigvalsh(z.conj().transpose(0, 2, 1) @ z)
        chunks.append(evals[:, ::-1][:, : rdims.l])
    assert batch.failures == 0
    np.testing.assert_array_equal(
        batch.values.view(np.uint64), np.concatenate(chunks).view(np.uint64)
    )


def test_fmatrix_scalar_case_positive():
    batch = sample_w_fmatrix(ReducedDims(3, 1, 4), 50, RngStream(3))
    assert batch.values.shape == (50, 1)
    assert np.all(batch.values > 0.0)


def test_haar_batch_contract():
    batch = sample_alpha_haar(ProblemDims(2, 3, 4), 10, RngStream(4))
    assert batch.values.shape == (10, 1)
    assert np.all((batch.values > 0.0) & (batch.values < 1.0))


def test_haar_regime_restriction():
    with pytest.raises(RegimeError):
        sample_alpha_haar(ProblemDims(2, 3, 2), 5, RngStream(0))


def test_haar_rejects_an_unknown_block():
    with pytest.raises(ParameterError):
        sample_alpha_haar(ProblemDims(2, 3, 4), 5, RngStream(0), block="x")
    assert issubclass(ParameterError, GsvdistError)


@pytest.mark.parametrize("dims", [(2, 3, 4), (3, 4, 5), (2, 5, 6)])
def test_haar_upper_block_is_the_qr_then_cs_route(dims):
    # a QR-built Haar unitary's first n columns are the phase-corrected Q
    # factor of its Gaussian draw's first n columns, so the upper-left route
    # computes _stack_cosines' cosines of those columns: haar_truncation_vs_gsvd
    # checks the QR and the streams, not that kernel or the phase step
    dims = ProblemDims(*dims)
    count, rng = 500, RngStream(8)
    batch = sample_alpha_haar(dims, count, rng)
    z = sample_ginibre(dims.m + dims.q, dims.m + dims.q, rng.substream(0).generator(), count=count)
    alphas, ok, _ = _stack_cosines(z[:, :, : dims.n], dims.m, compute_structure(dims))
    assert batch.failures == np.count_nonzero(~ok) == 0
    np.testing.assert_allclose(batch.values, alphas**2, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("dims", [(2, 3, 4), (3, 4, 5)])
def test_haar_upper_block_is_the_engine_cosine_sine_step_bit_for_bit(dims):
    # the upper-left route is the engine's one cosine-sine step, applied to
    # the first n columns of the chunk's own Haar draws
    dims = ProblemDims(*dims)
    count, rng = 500, RngStream(8)
    batch = sample_alpha_haar(dims, count, rng)
    u = sample_haar_unitary(dims.m + dims.q, rng.substream(0).generator(), count=count)
    alphas, ok = _top_cosines(u[:, :, : dims.n], dims.m, compute_structure(dims))
    assert batch.failures == np.count_nonzero(~ok) == 0
    np.testing.assert_array_equal(batch.values.view(np.uint64), (alphas**2).view(np.uint64))


def test_s_zero_is_refused_with_one_message():
    dims = ProblemDims(2, 3, 6)
    a = sample_ginibre(2, 6, RngStream(1))
    c = sample_ginibre(3, 6, RngStream(2))
    messages = []
    for call in (
        lambda: gsvd_spectrum(a, c),
        lambda: sample_w_gsvd(dims, 10, RngStream(0)),
        lambda: run_experiment("marginal", dims=dims, samples=10),
    ):
        with pytest.raises(RegimeError) as info:
            call()
        messages.append(str(info.value))
    assert len(set(messages)) == 1 and "s = 0" in messages[0], messages


def test_haar_block_routes_agree():
    dims = ProblemDims(2, 3, 4)
    n = 20_000
    upper = sample_alpha_haar(dims, n, RngStream(11, 0), block="upper_left")
    lower = sample_alpha_haar(dims, n, RngStream(11, 1), block="lower_right")
    assert ks_two_sample(upper, lower, 0.01).passed


@pytest.mark.parametrize("dims", [(2, 3, 4), (3, 4, 5)])
def test_haar_lower_block_matches_the_inline_eigenvalues_bit_for_bit(dims):
    # the Gram eigenvalues of the lower-right block written out, replaying
    # the chunk's own Haar draws; the values are the eigenvalues themselves
    dims = ProblemDims(*dims)
    count, rng = 500, RngStream(6)
    batch = sample_alpha_haar(dims, count, rng, block="lower_right")
    u = sample_haar_unitary(dims.m + dims.q, rng.substream(0).generator(), count=count)
    blk = u[:, dims.m :, dims.n :]
    evals = np.linalg.eigvalsh(blk.conj().transpose(0, 2, 1) @ blk)[:, ::-1]
    assert batch.failures == 0
    np.testing.assert_array_equal(batch.values.view(np.uint64), evals.view(np.uint64))


def test_haar_routes_do_not_see_the_phase_step():
    # sample_haar_unitary replays the plain QR of the same Ginibre draw with
    # each column times a unit phase.  A diagonal unitary on the right keeps
    # the upper-left block's singular values and the lower-right block's
    # Gram eigenvalues, so both Haar routes check the QR and the streams,
    # not the phase step; that shows only in R = U^H Z, whose diagonal is
    # real and positive for the Haar draw and not for the plain QR
    dims, count = ProblemDims(2, 3, 4), 2000
    m, n = dims.m, dims.n
    u = sample_haar_unitary(m + dims.q, RngStream(3), count=count)
    z = sample_ginibre(m + dims.q, m + dims.q, RngStream(3), count=count)
    q, _ = np.linalg.qr(z)
    phase = np.einsum("kij,kij->kj", q.conj(), u)
    np.testing.assert_allclose(np.abs(phase), 1.0, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(u, q * phase[:, None, :], rtol=0.0, atol=1e-14)

    def routes(x):
        lower = x[:, m:, n:]
        return (
            np.linalg.svd(x[:, :m, :n], compute_uv=False),
            np.linalg.eigvalsh(lower.conj().transpose(0, 2, 1) @ lower),
        )

    for haar, plain in zip(routes(u), routes(q)):
        np.testing.assert_allclose(haar, plain, rtol=1e-13, atol=1e-14)

    def r_diagonal_is_positive(x):
        d = np.einsum("kii->ki", x.conj().transpose(0, 2, 1) @ z)
        return bool(np.all(np.abs(d.imag) <= 1e-13 * np.abs(d)) and np.all(d.real > 0.0))

    assert r_diagonal_is_positive(u) and not r_diagonal_is_positive(q)


def test_haar_lower_block_discards_unit_and_zero_values_per_draw(monkeypatch):
    # at (2,3,4) the lower-right block is column 4 below row 2: the identity
    # gives it the value 1, a cyclic shift the value 0; each such draw is
    # dropped on its own, and 2000 draws allow the two failures
    import gsvdist.montecarlo as mc

    replaced = []

    def degenerate_first_draws(dim, rng, count=None):
        u = sample_haar_unitary(dim, rng, count=count)
        if not replaced:
            u[0] = np.eye(dim)
            u[1] = np.roll(np.eye(dim), 1, axis=0)
            replaced.append(True)
        return u

    monkeypatch.setattr(mc, "sample_haar_unitary", degenerate_first_draws)
    batch = mc.sample_alpha_haar(ProblemDims(2, 3, 4), 2000, RngStream(3), block="lower_right")
    assert batch.failures == 2 and np.all((batch.values > 0.0) & (batch.values < 1.0))


def test_q_power_batch_positive():
    batch = sample_q_power(ProblemDims(2, 2, 8), 100, RngStream(5))
    assert np.all(batch.values > 0.0)


def test_q_power_regime():
    with pytest.raises(RegimeError):
        sample_q_power(ProblemDims(2, 2, 4), 10, RngStream(0))


def test_square_stack_is_refused_with_one_message(monkeypatch):
    import gsvdist.montecarlo as mc

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before refusing")

    dims = ProblemDims(2, 2, 4)
    a = sample_ginibre(2, 4, RngStream(1))
    c = sample_ginibre(2, 4, RngStream(2))
    monkeypatch.setattr(mc, "sample_ginibre", no_draw)
    messages = []
    for call in (
        lambda: expected_q_power(dims),
        lambda: q_power_trace(a, c),
        lambda: sample_q_power(dims, 10, RngStream(0)),
        lambda: run_experiment("qpower", dims=dims, samples=10),
    ):
        with pytest.raises(RegimeError) as info:
            call()
        messages.append(str(info.value))
    assert len(set(messages)) == 1 and "undefined" in messages[0], messages


def test_q_power_batch_matches_per_draw_reduction():
    # replay the vectorized chunk's own draw order and reduce one pair at
    # a time through the single-pair power
    dims = ProblemDims(2, 2, 8)
    count = 16
    batch = sample_q_power(dims, count, RngStream(77))
    gen = RngStream(77).substream(0).generator()
    a = sample_ginibre(dims.m, dims.n, gen, count=count)
    c = sample_ginibre(dims.q, dims.n, gen, count=count)
    for i in range(count):
        assert batch.values[i, 0] == pytest.approx(q_power_trace(a[i], c[i]), rel=1e-10)


def test_gsvd_moment_is_the_exact_beta_mean():
    # (2,3,4) reduces to (3,1,4): one eigenvalue, with alpha^2 = w/(1+w)
    # Beta(a + 1, b + 1) at a = 2, b = 1, whose exact mean is 3/5
    dims = ProblemDims(2, 3, 4)
    params = law_params(*reduced_dims(dims).as_tuple())
    assert (params.l, params.t1, params.t1_reciprocal) == (1, 2, 1)
    target = 3 / 5
    batch = sample_w_gsvd(dims, 10_000, RngStream(6))
    alpha_sq = batch.values[:, 0] / (1.0 + batch.values[:, 0])
    se = alpha_sq.std(ddof=1) / np.sqrt(alpha_sq.size)
    assert abs(alpha_sq.mean() - target) < 3.0 * se


def test_q_power_variance_matches_the_inverse_wishart_value():
    # Var tr G^-1 = p (p + d) / (d^2 (d^2 - 1)), p = min(m+q, n), d = |m+q-n|;
    # the k-th moment is finite for d >= k, so at d = 6 the fourth moment
    # behind the sample variance's standard error is finite
    dims = ProblemDims(4, 5, 3)
    p, d = min(dims.m + dims.q, dims.n), abs(dims.m + dims.q - dims.n)
    exact = p * (p + d) / (d**2 * (d**2 - 1))
    x = sample_q_power(dims, 100_000, RngStream(0)).values[:, 0]
    n, dev = x.size, x - x.mean()
    var = dev @ dev / (n - 1)
    se = np.sqrt((np.mean(dev**4) - var**2 * (n - 3) / (n - 1)) / n)
    assert abs(var - exact) <= 3.0 * se, (var, exact, se)


# ------------------------------------------------------------ failure paths


def _fake_draw(bad_per_call):
    # every row is drawn; the last bad_per_call rows of each call are masked
    def draw(gen, want):
        vals = np.abs(gen.standard_normal((want, 1))) + 0.1
        return vals, np.arange(want) < want - bad_per_call

    return draw


def test_run_batch_counts_failures():
    batch = _run_batch(SamplerId.GSVD, (1, 1, 1), _fake_draw(0), 50, RngStream(1), 1)
    assert batch.failures == 0


def test_run_batch_aborts_on_failure_rate():
    with pytest.raises(DegeneracyError):
        _run_batch(SamplerId.GSVD, (1, 1, 1), _fake_draw(200), 400, RngStream(1), 1)


def test_run_batch_keeps_one_discard_in_a_small_batch():
    # the budget never falls below one draw: a 50-draw batch survives a
    # single discard (0.1% of 51 draws would be 0.05)
    def draw(gen, want):
        vals = np.abs(gen.standard_normal((want, 1))) + 0.1
        return vals, np.arange(want) >= int(want == 50)

    batch = _run_batch(SamplerId.GSVD, (1, 1, 1), draw, 50, RngStream(1), 1)
    assert batch.failures == 1 and batch.count == 50


@pytest.mark.parametrize("count", [50, CHUNK + 7])
@pytest.mark.parametrize("workers", [1, 2])
def test_run_batch_drops_and_counts_masked_rows(count, workers):
    # a draw returns every row with its mask; rows it masks hold values that
    # SampleBatch would refuse (NaN, 0), so none may reach the batch
    masked = []

    def draw(gen, want):
        vals = np.abs(gen.standard_normal((want, 1))) + 0.1
        ok = np.ones(want, dtype=bool)
        if want >= 50:  # the first call of each chunk of 50 draws or more
            vals[0], ok[0] = np.nan, False
        if want > 50:
            vals[-1], ok[-1] = 0.0, False
        masked.append(int(np.count_nonzero(~ok)))
        return vals, ok

    batch = _run_batch(SamplerId.GSVD, (1, 1, 1), draw, count, RngStream(1), workers)
    assert batch.count == count
    assert np.all(np.isfinite(batch.values)) and np.all(batch.values > 0.0)
    assert batch.failures == sum(masked) == (1 if count == 50 else 2)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_batch_aborts_when_chunks_within_budget_sum_over_it(workers):
    # 2 discards in the 2000-draw chunk (2 <= 2.002) and 1 in the 100-draw
    # chunk (1 <= 1) pass their own budgets, but 3 of 2103 draws do not
    def draw(gen, want):
        ok = np.ones(want, dtype=bool)
        ok[: {CHUNK: 2, 100: 1}.get(want, 0)] = False
        return np.ones((want, 1)), ok

    with pytest.raises(DegeneracyError, match=r"^batch aborted: failure rate 0\.14% exceeds 0\.1%$"):
        _run_batch(SamplerId.GSVD, (1, 1, 1), draw, CHUNK + 100, RngStream(1), workers)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: run_experiment("equivalence"), RegimeError,
         "equivalence experiment needs pair dimensions"),
        (lambda: run_experiment("normalization"), RegimeError,
         "normalization experiment needs reduced dimensions"),
        (lambda: mean_report(np.array([1.0]), 1.0), DimensionError,
         "mean test needs at least two values"),
        (lambda: gsvd_factorize(np.zeros((1, 3)), sample_ginibre(2, 3, RngStream(0))),
         DecompositionError, "stacked pair is rank deficient"),
        (lambda: ProblemDims(0, 1, 1), DimensionError,
         "dimensions must be >= 1, got ProblemDims(m=0, q=1, n=1)"),
        (lambda: RngStream(0, -1), ParameterError,
         "seed and stream index must be >= 0, got RngStream(master_seed=0, stream_index=-1)"),
        (lambda: GsvdSpectrum(np.full((1, 1), 0.5)), DimensionError, "alphas must be a 1-d array"),
        (lambda: GsvdSpectrum(np.array([0.2, 0.5])), DegeneracyError,
         "alphas must lie in (0,1), descending"),
        (lambda: GsvdSpectrum(np.array([1.0])), DegeneracyError,
         "alphas must lie in (0,1), descending"),
    ],
)
def test_library_refusals(call, error, message):
    # refusals that no CLI test reaches: a missing input, one value for a
    # mean test, a rank-deficient stack, a dimension below 1, a negative
    # stream index, and alphas that are not 1-d or not descending inside (0, 1)
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "workers, cores",
    [
        pytest.param(1, None, id="1"),
        pytest.param(2, None, id="2"),
        pytest.param(2, 1, id="2-one-core"),
    ],
)
def test_every_chunk_runs_under_the_callers_numpy_error_state(workers, cores, monkeypatch):
    # np.errstate is a context variable that pool threads do not inherit;
    # workers set threads only, so an overflow raises or stays silent alike,
    # on a pool of one thread as on a pool of two
    if cores is not None:
        monkeypatch.setattr(os, "cpu_count", lambda: cores)

    def draw(gen, want):
        # 1e308 * 10 overflows to inf; the row clipped to 1 is a valid draw
        return np.minimum(np.full((want, 1), 1e308) * 10.0, 1.0), np.ones(want, dtype=bool)

    def run():
        return _run_batch(SamplerId.GSVD, (1, 1, 1), draw, CHUNK + 7, RngStream(1), workers)

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        run()
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run().count == CHUNK + 7


# --------------------------------------------------------------------- ks


def _synthetic_batch(values, seed=0, stream=0):
    values = np.asarray(values, dtype=float).reshape(len(values), -1)
    return SampleBatch(
        sampler_id=SamplerId.Q_POWER,
        dims=(1, 1, 1),
        seed=seed,
        stream_index=stream,
        values=values,
    )


def test_ks_identical_batches():
    batch = _synthetic_batch(np.linspace(1.0, 2.0, 100))
    report = ks_two_sample(batch, batch, 0.01)
    assert report.statistic == 0.0 and report.passed


def test_ks_disjoint_batches():
    a = _synthetic_batch(np.linspace(1.0, 2.0, 100))
    b = _synthetic_batch(np.linspace(3.0, 4.0, 100))
    report = ks_two_sample(a, b, 0.01)
    assert report.statistic == 1.0 and not report.passed


def test_ks_critical_constants():
    assert ks_critical_constant(0.01) == 1.628
    assert ks_critical_constant(0.05) == 1.358
    assert ks_critical_constant(0.10) == pytest.approx(1.2238734, rel=1e-6)


def test_ks_null_calibration():
    # two seeds of the same sampler must look identical in distribution;
    # with alpha = 0.01 at most one rejection is expected in 100 repeats
    # on the committed master seed; the draws do not depend on the workers
    dims = ProblemDims(2, 3, 2)
    failures = 0
    for rep in range(100):
        a = sample_w_gsvd(dims, 20_000, RngStream(1000 + rep, 0), workers=2)
        b = sample_w_gsvd(dims, 20_000, RngStream(1000 + rep, 1), workers=2)
        if not ks_two_sample(a, b, 0.01).passed:
            failures += 1
    assert failures <= 1


def test_ks_one_sample_exact_null():
    # inverse-CDF draws from the law itself must pass
    params = law_params(2, 1, 3)
    gen = np.random.default_rng(9)
    u = gen.uniform(size=2000)
    # inverse CDF by bisection in log w over [1e-12, 1e12], all draws at once
    lo, hi = np.full_like(u, np.log(1e-12)), np.full_like(u, np.log(1e12))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = marginal_cdf(params, np.exp(mid)) < u
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    draws = np.exp(0.5 * (lo + hi))
    batch = _synthetic_batch(draws)
    assert ks_one_sample(batch, params, 0.01).passed


def test_scalar_samples_arity_one_passthrough():
    batch = _synthetic_batch(np.linspace(1.0, 2.0, 10))
    np.testing.assert_array_equal(scalar_samples(batch), batch.values[:, 0])


def test_scalar_samples_reproducible_choice():
    gen = np.random.default_rng(3)
    values = gen.uniform(1.0, 2.0, size=(50, 3))
    a = _synthetic_batch(values, seed=5, stream=2)
    b = _synthetic_batch(values, seed=5, stream=2)
    np.testing.assert_array_equal(scalar_samples(a), scalar_samples(b))
    picked = scalar_samples(a)
    assert all(p in row for p, row in zip(picked, values))


def test_mean_report_fields():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    report = mean_report(values, 2.5)
    assert report.estimate == 2.5 and report.z_score == 0.0 and report.passed
    report = mean_report(values, 100.0)
    assert not report.passed


@pytest.mark.parametrize(
    "values, message",
    [
        (np.ones(3), "zero spread"),
        (np.array([1.0, np.nan, 3.0]), "finite"),
        (np.array([1.0, np.inf, 3.0]), "finite"),
        (np.array([1.0, -np.inf]), "finite"),
    ],
)
def test_mean_report_refuses_a_degenerate_sample(values, message):
    # no division by a zero spread and no all-NaN report: a refusal, and no
    # RuntimeWarning (an error under the pytest settings) on the way
    with pytest.raises(DegeneracyError, match=message):
        mean_report(values, 2.0)


# ------------------------------------------------------------- experiments


# (4, 5, 3) and (3, 4, 5) at these sizes and seed are criteria 4 and 5 of
# tests/test_acceptance.py, which run them once
@pytest.mark.parametrize("dims", [(2, 3, 2), (2, 3, 4), (3, 4, 6)])
def test_equivalence_grid(dims):
    report = run_experiment(
        Experiment.EQUIVALENCE, dims=ProblemDims(*dims), samples=20_000, seed=0
    )
    assert report.passed, report.to_dict()


# (2, 3, 2) draws the ratio-ensemble batch of criterion 7's marginal run
@pytest.mark.parametrize("dims", [(4, 5, 3), (2, 3, 4), (3, 4, 5), (3, 4, 6)])
def test_closed_form_marginal_grid(dims):
    # every reduced triple in the grid has l <= 3
    rd = reduced_dims(ProblemDims(*dims))
    assert rd.l <= 3
    batch = sample_w_fmatrix(rd, 20_000, RngStream(0, 1))
    assert ks_one_sample(batch, law_params(*rd.as_tuple()), 0.01).passed


# (2, 3, 4) at this size and seed is criterion 6, which also checks the names
@pytest.mark.parametrize("dims", [(3, 4, 5)])
def test_haar_chain_experiment(dims):
    report = run_experiment(
        Experiment.HAAR_CHAIN, dims=ProblemDims(*dims), samples=20_000, seed=0
    )
    assert report.passed
    assert {name for name, _ in report.checks} == {
        "haar_truncation_vs_gsvd",
        "haar_block_equivalence",
    }


def test_alpha_sq_to_w_conversion():
    batch = sample_alpha_haar(ProblemDims(2, 3, 4), 10, RngStream(8))
    conv = alpha_sq_to_w(batch)
    np.testing.assert_allclose(
        conv.values, batch.values / (1.0 - batch.values), rtol=1e-14
    )
    assert conv.seed == batch.seed and conv.stream_index == batch.stream_index


# (2, 2, 8) and (3, 3, 2) at this size and seed are criterion 8
@pytest.mark.parametrize("dims", [(2, 3, 9)])
def test_qpower_experiment_grid(dims):
    report = run_experiment(
        Experiment.Q_POWER_MEAN, dims=ProblemDims(*dims), samples=100_000, seed=0
    )
    assert report.passed, report.to_dict()


def test_qpower_gates():
    with pytest.raises(RegimeError, match="undefined"):
        run_experiment(Experiment.Q_POWER_MEAN, dims=ProblemDims(2, 2, 4))
    with pytest.raises(RegimeError, match=">= 3"):
        run_experiment(Experiment.Q_POWER_MEAN, dims=ProblemDims(2, 3, 4))


def test_each_experiment_records_and_refuses_by_what_its_checks_read(monkeypatch):
    # the experiments whose checks read (m', p, n') record it and refuse
    # s = 0; the one that draws Haar truncations refuses dims outside
    # q < n < q + m; the one with a mean check refuses a gap below
    # MEAN_TEST_MIN_GAP; each refusal comes before the too-few-samples check
    # and any draw
    import gsvdist.montecarlo as mc

    records = {"equivalence": ((2, 3, 2), True), "marginal": ((2, 3, 2), True),
               "haar": ((2, 3, 4), False), "qpower": ((2, 2, 8), False)}
    for experiment, (dims, reads_reduced) in records.items():
        dims = ProblemDims(*dims)
        want = {**asdict(dims), **(asdict(reduced_dims(dims)) if reads_reduced else {})}
        report = run_experiment(experiment, dims=dims, samples=6)
        assert list(report.to_dict()["dims"].items()) == list(want.items()), experiment

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before refusing")

    for name in ("sample_w_gsvd", "sample_w_fmatrix", "sample_alpha_haar", "sample_q_power"):
        monkeypatch.setattr(mc, name, no_draw)
    refusals = [
        (experiment, (2, 3, 6), "dims (2, 3, 6) are deterministic (s = 0): no random spectrum")
        for experiment in ("equivalence", "marginal")
    ] + [
        ("qpower", dims, f"mean test needs |m + q - n| >= 3, got {gap}: near m + q = n "
         "the sampling variance makes a 3-sigma acceptance meaningless")
        for dims, gap in (((2, 3, 4), 1), ((2, 3, 3), 2))
    ] + [
        ("haar", dims, f"haar truncation sampling needs q < n < q + m, got {dims} ({regime})")
        for dims, regime in (((2, 3, 6), "deterministic"), ((2, 3, 2), "tall_c"))
    ]
    for experiment, dims, message in refusals:
        for samples in (200, 1):
            with pytest.raises(RegimeError) as info:
                run_experiment(experiment, dims=ProblemDims(*dims), samples=samples)
            assert type(info.value) is RegimeError, (experiment, dims, samples)
            assert str(info.value) == message, (experiment, dims, samples)
    # no check of qpower reads the reduced triple, so s = 0 alone is no refusal
    with pytest.raises(AssertionError, match="drew"):
        run_experiment("qpower", dims=ProblemDims(1, 1, 5), samples=200)


def test_names_that_read_the_reduced_triple_are_sources_or_tests():
    # a misspelt name would silently drop the s = 0 refusal and the record,
    # or the truncation-regime refusal
    import gsvdist.montecarlo as mc

    assert mc._READS_REDUCED and mc._READS_REDUCED <= mc._SOURCES.keys() | mc._TESTS.keys()
    assert mc._TRUNCATED and mc._TRUNCATED <= mc._SOURCES.keys()
    assert "mean" in mc._TESTS


def test_marginal_experiment_order_eight():
    # reduced triple (9, 8, 9), so l = 8; the seed was fixed before the
    # first run
    dims = ProblemDims(8, 9, 9)
    assert reduced_dims(dims).l == 8
    report = run_experiment("marginal", dims, samples=5000, seed=0)
    assert report.passed, report.to_dict()


def test_normalization_experiment():
    report = run_experiment(Experiment.NORMALIZATION, reduced=ReducedDims(3, 2, 4))
    assert report.passed
    assert report.checks[0][1]["value"] == pytest.approx(1.0, abs=1e-6)


def test_normalization_cdf_check_fails_on_a_perturbed_cdf(monkeypatch):
    # pdf * cdf integrates to 1/2 for the true law; a CDF off by
    # 1e-6 u (1-u), u = w/(1+w), moves the integral by about 1.7e-7
    import gsvdist.montecarlo as mc

    reduced = ReducedDims(3, 2, 4)
    check = run_experiment(Experiment.NORMALIZATION, reduced=reduced).checks[1]
    assert check[0] == "cdf_against_density" and check[1]["target"] == 0.5
    assert abs(check[1]["value"] - 0.5) <= 1e-14 and check[1]["passed"]

    def perturbed(params, w):
        u = np.asarray(w) / (1.0 + np.asarray(w))
        return marginal_cdf(params, w) + 1e-6 * u * (1.0 - u)

    monkeypatch.setattr(mc, "marginal_cdf", perturbed)
    report = run_experiment(Experiment.NORMALIZATION, reduced=reduced)
    assert report.checks[0][1]["passed"] and not report.checks[1][1]["passed"]
    assert not report.passed


def test_equivalence_rejects_deterministic():
    with pytest.raises(RegimeError):
        run_experiment(Experiment.EQUIVALENCE, dims=ProblemDims(2, 3, 6))


def test_experiment_accepts_string_names():
    report = run_experiment("normalization", reduced=ReducedDims(1, 1, 1))
    assert report.experiment == "normalization"


def test_experiments_resolve_samplers_at_call_time(monkeypatch):
    # run_experiment looks each sampler up as a module global per batch, so
    # a wrapper bound to the name sees every draw the experiment makes
    import gsvdist.montecarlo as mc

    calls = {}

    def counting(name):
        real = getattr(mc, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        return wrapper

    names = ("sample_w_gsvd", "sample_w_fmatrix", "sample_alpha_haar", "sample_q_power")
    for name in names:
        monkeypatch.setattr(mc, name, counting(name))
    expected = {
        "equivalence": ((2, 3, 2), {"sample_w_gsvd": 1, "sample_w_fmatrix": 1}),
        "marginal": ((2, 3, 2), {"sample_w_gsvd": 1, "sample_w_fmatrix": 1}),
        "haar": ((2, 3, 4), {"sample_alpha_haar": 2, "sample_w_gsvd": 1}),
        "qpower": ((2, 2, 8), {"sample_q_power": 1}),
    }
    for experiment, (dims, want) in expected.items():
        calls.clear()
        run_experiment(experiment, dims=ProblemDims(*dims), samples=200, seed=0)
        assert calls == want, experiment


def test_experiments_reject_bad_alpha_before_any_draw(monkeypatch):
    import gsvdist.montecarlo as mc

    calls = []

    def counting(name):
        real = getattr(mc, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("sample_w_gsvd", "sample_w_fmatrix", "sample_alpha_haar", "sample_q_power"):
        monkeypatch.setattr(mc, name, counting(name))
    cases = {"equivalence": (2, 3, 2), "marginal": (2, 3, 2), "haar": (2, 3, 4), "qpower": (2, 2, 8)}
    for experiment, dims in cases.items():
        for alpha in (1.5, 0.0, 1.0, -0.01, float("nan")):
            with pytest.raises(ParameterError, match="alpha"):
                run_experiment(experiment, dims=ProblemDims(*dims), samples=200, alpha_level=alpha)
    assert calls == []
    assert issubclass(ParameterError, ValueError)


@pytest.mark.parametrize(
    "experiment, dims, samples",
    [("marginal", (2, 3, 2), 2), ("equivalence", (2, 3, 2), 5), ("qpower", (2, 2, 8), 1),
     ("haar", (2, 3, 4), 0)],
)
def test_samples_too_few_to_reject_are_refused_before_any_draw(monkeypatch, experiment, dims, samples):
    # at alpha = 0.01 the KS critical values are 1.151 (one-sample, n = 2)
    # and 1.030 (two-sample, n = 5), above any KS statistic; a mean test
    # needs two draws, and no check has a critical value at no draw
    import gsvdist.montecarlo as mc

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before refusing")

    for name in ("sample_w_gsvd", "sample_w_fmatrix", "sample_alpha_haar", "sample_q_power"):
        monkeypatch.setattr(mc, name, no_draw)
    with pytest.raises(ParameterError, match="too few"):
        run_experiment(experiment, dims=ProblemDims(*dims), samples=samples)


def test_negative_seed_is_refused_before_any_draw(monkeypatch):
    import gsvdist.montecarlo as mc

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(mc, "sample_w_gsvd", no_draw)
    with pytest.raises(ParameterError, match="seed and stream index must be >= 0"):
        run_experiment("equivalence", dims=ProblemDims(2, 3, 2), seed=-1)


@pytest.mark.parametrize(
    "samples, workers, message",
    [(-5, 1, "samples = -5 is too few"), (0, 1, "samples = 0 is too few"),
     (200, 0, "workers must be >= 1, got 0")],
)
def test_normalization_refuses_samples_and_workers_before_any_work(
    monkeypatch, samples, workers, message
):
    # the quadrature reads neither, but every experiment refuses them first
    import gsvdist.montecarlo as mc

    def no_work(*args, **kwargs):
        raise AssertionError("integrated before refusing")

    monkeypatch.setattr(mc, "quadrature_integrate", no_work)
    with pytest.raises(ParameterError, match=message):
        run_experiment(
            "normalization", reduced=ReducedDims(3, 2, 4), samples=samples, workers=workers
        )


def test_normalization_refuses_a_negative_seed_before_any_work(monkeypatch):
    # it draws nothing, but the seed's domain is RngStream's for every experiment
    import gsvdist.montecarlo as mc

    def no_work(*args, **kwargs):
        raise AssertionError("integrated before refusing")

    monkeypatch.setattr(mc, "quadrature_integrate", no_work)
    with pytest.raises(ParameterError, match="seed and stream index must be >= 0"):
        run_experiment("normalization", reduced=ReducedDims(3, 2, 4), seed=-1)


def test_fewest_samples_that_can_reject_still_run():
    # six draws bring the two-sample critical value below one
    cases = {"equivalence": (2, 3, 2), "marginal": (2, 3, 2), "haar": (2, 3, 4), "qpower": (2, 2, 8)}
    for experiment, dims in cases.items():
        report = run_experiment(experiment, dims=ProblemDims(*dims), samples=6)
        for _, check in report.checks:
            assert check.get("critical_value", 0.0) < 1.0 and check.get("n1", 6) == 6
    # the refusal follows the level: five draws can reject at alpha = 0.05
    report = run_experiment("equivalence", dims=ProblemDims(2, 3, 2), samples=5, alpha_level=0.05)
    assert report.checks[0][1]["critical_value"] < 1.0


def test_report_determinism():
    kwargs = dict(dims=ProblemDims(2, 3, 2), samples=2_000, seed=123, workers=2)
    a = run_experiment(Experiment.EQUIVALENCE, **kwargs)
    b = run_experiment(Experiment.EQUIVALENCE, **kwargs)
    assert a.to_dict() == b.to_dict()


def test_report_payload_ignores_workers(capsys):
    # the payload of a run and of its CLI dump depends on the seed alone
    from gsvdist.cli import main

    dims = ProblemDims(2, 3, 2)
    payloads, dumps = [], []
    for workers in (1, 2, 3, 64):
        report = run_experiment(
            Experiment.EQUIVALENCE, dims=dims, samples=2 * CHUNK + 7, seed=4, workers=workers
        )
        payloads.append(report.to_dict())
        main(["verify", "equivalence", "--m", "2", "--q", "3", "--n", "2",
              "--samples", str(2 * CHUNK + 7), "--seed", "4", "--workers", str(workers)])
        dumps.append(json.loads(capsys.readouterr().out))
    assert "workers" not in payloads[0]
    assert all(payload == payloads[0] for payload in payloads)
    assert all(dump["data"] == payloads[0] for dump in dumps)
    assert [dump["meta"]["workers"] for dump in dumps] == [1, 2, 3, 64]


def test_report_records_inputs():
    report = run_experiment(
        Experiment.MARGINAL, dims=ProblemDims(2, 3, 2), samples=2_000, seed=7, workers=2
    )
    assert report.seed == 7 and report.workers == 2 and report.samples == 2_000
    assert report.dims["m_prime"] == 2 and report.dims["n_prime"] == 3
    assert report.notes  # a sampling experiment carries the calibration caveat


def test_only_sampling_reports_carry_the_calibration_note():
    import gsvdist.montecarlo as mc

    report = run_experiment("normalization", reduced=ReducedDims(3, 2, 4))
    assert report.to_dict()["notes"] == []
    report = run_experiment("equivalence", dims=ProblemDims(2, 3, 2), samples=200)
    assert report.to_dict()["notes"] == [mc._CALIBRATION_NOTE]


def test_batch_validation():
    with pytest.raises(DimensionError):
        sample_w_gsvd(ProblemDims(2, 3, 2), 0, RngStream(0))
    with pytest.raises(ParameterError, match="workers"):
        sample_w_gsvd(ProblemDims(2, 3, 2), 10, RngStream(0), workers=0)
    with pytest.raises(DegeneracyError):
        _synthetic_batch([1.0, -2.0])
    for values in (np.ones(3), np.ones((0, 3))):
        with pytest.raises(DimensionError):
            SampleBatch(SamplerId.Q_POWER, (1, 1, 1), 0, 0, values)
    batch = _synthetic_batch(np.ones((4, 3)))
    with pytest.raises(AttributeError):
        batch.count = 5
    assert (batch.count, batch.arity) == (4, 3)


def test_the_calls_the_benchmark_makes(monkeypatch):
    # the benchmark counts draws by rebinding the samplers here, calls the
    # package as below, and keeps a batch's count and failures only when
    # they are ints: a signature it relies on breaks here first
    import gsvdist.montecarlo as mc

    batches = []

    def counting(real):
        def wrapper(*args, **kwargs):
            batches.append(real(*args, **kwargs))
            return batches[-1]

        return wrapper

    for name in ("sample_w_gsvd", "sample_w_fmatrix", "sample_alpha_haar", "sample_q_power"):
        monkeypatch.setattr(mc, name, counting(getattr(mc, name)))
    plan = (("equivalence", (4, 5, 3)), ("haar", (2, 3, 4)), ("marginal", (2, 3, 2)),
            ("qpower", (2, 2, 8)))
    for experiment, dims in plan:
        report = run_experiment(experiment, dims=ProblemDims(*dims), samples=40, seed=0, workers=2)
        assert isinstance(report.passed, bool)
    batches.append(sample_w_gsvd(ProblemDims(2, 3, 2), 30, RngStream(0, 0), 2))
    assert sum(batch.count for batch in batches) == 40 * 8 + 30
    assert all(type(batch.count) is int and type(batch.failures) is int for batch in batches)
    assert quadrature_integrate(lambda w: (1.0 + w) ** -2, 1e-8) == pytest.approx(1.0)

"""Sampler contracts, KS machinery, and the experiment harness."""

import numpy as np
import pytest
from scipy.optimize import brentq

from gsvdist import (
    Experiment,
    ProblemDims,
    ReducedDims,
    RngStream,
    SampleBatch,
    SamplerId,
    alpha_sq_to_w,
    gsvd_spectrum,
    ks_one_sample,
    ks_two_sample,
    law_params,
    marginal_cdf,
    mean_report,
    quadrature_integrate,
    marginal_pdf,
    reduced_dims,
    run_experiment,
    sample_alpha_haar,
    sample_ginibre,
    sample_q_power,
    sample_w_fmatrix,
    sample_w_gsvd,
    scalar_samples,
)
from gsvdist.errors import DegeneracyError, DimensionError, ParameterError, RegimeError
from gsvdist.montecarlo import _chunk_sizes, _run_batch, ks_critical_constant


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
    a = sample_w_gsvd(ProblemDims(2, 3, 4), 31, RngStream(5), workers=3)
    b = sample_w_gsvd(ProblemDims(2, 3, 4), 31, RngStream(5), workers=3)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.values.shape == (31, 1)


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
    # solve, z^H z, eigvalsh), chunk i drawn from substream i
    rdims = ReducedDims(*triple)
    count, rng = 600, RngStream(5)
    batch = sample_w_fmatrix(rdims, count, rng, workers=workers)
    chunks = []
    for i, size in enumerate(_chunk_sizes(count, workers)):
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


def test_haar_block_routes_agree():
    dims = ProblemDims(2, 3, 4)
    n = 20_000
    upper = sample_alpha_haar(dims, n, RngStream(11, 0), block="upper_left")
    lower = sample_alpha_haar(dims, n, RngStream(11, 1), block="lower_right")
    assert ks_two_sample(upper, lower, 0.01).passed


def test_q_power_batch_positive():
    batch = sample_q_power(ProblemDims(2, 2, 8), 100, RngStream(5))
    assert np.all(batch.values > 0.0)


def test_q_power_regime():
    with pytest.raises(RegimeError):
        sample_q_power(ProblemDims(2, 2, 4), 10, RngStream(0))


def test_gsvd_moment_matches_quadrature():
    # E[alpha^2] = integral of w/(1+w) against the reduced-law density
    dims = ProblemDims(2, 3, 4)
    params = law_params(*reduced_dims(dims).as_tuple())
    target = quadrature_integrate(
        lambda w: w / (1.0 + w) * marginal_pdf(params, w), 1e-9
    )
    batch = sample_w_gsvd(dims, 10_000, RngStream(6))
    alpha_sq = batch.values[:, 0] / (1.0 + batch.values[:, 0])
    se = alpha_sq.std(ddof=1) / np.sqrt(alpha_sq.size)
    assert abs(alpha_sq.mean() - target) < 3.0 * se


# ------------------------------------------------------------ failure paths


def _fake_draw(bad_per_call):
    def draw(gen, want):
        vals = np.abs(gen.standard_normal((want, 1))) + 0.1
        return vals[: max(0, want - bad_per_call)], min(bad_per_call, want)

    return draw


def test_run_batch_counts_failures():
    batch = _run_batch(
        SamplerId.GSVD, (1, 1, 1), 1, _fake_draw(0), 50, RngStream(1), 1
    )
    assert batch.failures == 0


def test_run_batch_aborts_on_failure_rate():
    with pytest.raises(DegeneracyError):
        _run_batch(
            SamplerId.GSVD, (1, 1, 1), 1, _fake_draw(200), 400, RngStream(1), 1
        )


def test_run_batch_keeps_one_discard_in_a_small_batch():
    # the budget never falls below one draw: a 50-draw batch survives a
    # single discard (0.1% of 51 draws would be 0.05)
    def draw(gen, want):
        vals = np.abs(gen.standard_normal((want, 1))) + 0.1
        bad = int(want == 50)
        return vals[bad:], bad

    batch = _run_batch(SamplerId.GSVD, (1, 1, 1), 1, draw, 50, RngStream(1), 1)
    assert batch.failures == 1 and batch.count == 50


# --------------------------------------------------------------------- ks


def _synthetic_batch(values, seed=0, stream=0):
    values = np.asarray(values, dtype=float).reshape(len(values), -1)
    return SampleBatch(
        sampler_id=SamplerId.Q_POWER,
        dims=(1, 1, 1),
        seed=seed,
        stream_index=stream,
        count=values.shape[0],
        arity=values.shape[1],
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
    # on the committed master seed
    dims = ProblemDims(2, 3, 2)
    failures = 0
    for rep in range(100):
        a = sample_w_gsvd(dims, 20_000, RngStream(1000 + rep, 0))
        b = sample_w_gsvd(dims, 20_000, RngStream(1000 + rep, 1))
        if not ks_two_sample(a, b, 0.01).passed:
            failures += 1
    assert failures <= 1


def test_ks_one_sample_exact_null():
    # inverse-CDF draws from the law itself must pass
    params = law_params(2, 1, 3)
    gen = np.random.default_rng(9)
    u = gen.uniform(size=2000)
    draws = np.array(
        [brentq(lambda w: marginal_cdf(params, w) - ui, 1e-12, 1e12) for ui in u]
    )
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


# ------------------------------------------------------------- experiments


@pytest.mark.parametrize("dims", [(2, 3, 2), (4, 5, 3), (2, 3, 4), (3, 4, 5), (3, 4, 6)])
def test_equivalence_grid(dims):
    report = run_experiment(
        Experiment.EQUIVALENCE, dims=ProblemDims(*dims), samples=20_000, seed=0
    )
    assert report.passed, report.to_dict()


@pytest.mark.parametrize("dims", [(2, 3, 2), (4, 5, 3), (2, 3, 4), (3, 4, 5), (3, 4, 6)])
def test_closed_form_marginal_grid(dims):
    # every reduced triple in the grid has l <= 3
    rd = reduced_dims(ProblemDims(*dims))
    assert rd.l <= 3
    batch = sample_w_fmatrix(rd, 20_000, RngStream(0, 1))
    assert ks_one_sample(batch, law_params(*rd.as_tuple()), 0.01).passed


@pytest.mark.parametrize("dims", [(2, 3, 4), (3, 4, 5)])
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


@pytest.mark.parametrize("dims", [(2, 2, 8), (3, 3, 2), (2, 3, 9)])
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


def test_report_determinism():
    kwargs = dict(dims=ProblemDims(2, 3, 2), samples=2_000, seed=123, workers=2)
    a = run_experiment(Experiment.EQUIVALENCE, **kwargs)
    b = run_experiment(Experiment.EQUIVALENCE, **kwargs)
    assert a.to_dict(include_timing=False) == b.to_dict(include_timing=False)


def test_report_records_inputs():
    report = run_experiment(
        Experiment.MARGINAL, dims=ProblemDims(2, 3, 2), samples=2_000, seed=7, workers=2
    )
    assert report.seed == 7 and report.workers == 2 and report.samples == 2_000
    assert report.dims["m_prime"] == 2 and report.dims["n_prime"] == 3
    assert report.notes  # calibration caveat is always present


def test_batch_validation():
    with pytest.raises(DimensionError):
        sample_w_gsvd(ProblemDims(2, 3, 2), 0, RngStream(0))
    with pytest.raises(DegeneracyError):
        _synthetic_batch([1.0, -2.0])

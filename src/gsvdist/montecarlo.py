"""Monte Carlo samplers and the statistical verification harness.

Three independent constructions of the same spectral law are sampled here:
the generalized SVD of a Gaussian pair, the eigenvalues of the Gaussian
ratio ensemble at the mapped reduced dimensions, and the interior squared
singular values of a truncated Haar unitary.  Kolmogorov-Smirnov tests
check that they agree with each other and with the closed-form marginal,
and a mean test checks the closed-form power of the shared right factor.

Batches are drawn in chunks of ``CHUNK`` draws; chunk ``i`` uses substream
``i`` of the batch's stream, and results merge by concatenation in chunk
order, so a report is a pure function of the seed.  Every batch runs on a
pool of ``min(workers, chunks, cores)`` threads, one thread at ``workers =
1``: ``workers`` sets that count only, and every thread runs under the
caller's numpy error state.  Draws that fail the rank test, the
singular-value classification or a Cholesky factorization are discarded
one by one and counted, and each check reports the count of its batches as
``discarded``.  One failure budget, 0.1% of the draws made and never less
than one draw, applies to each chunk while it draws and to the whole
batch; exceeding it aborts the batch rather than risk biased censoring.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from enum import Enum
from math import sqrt

import numpy as np

from .engine import (
    ProblemDims,
    ReducedDims,
    _classify,
    _power_gap,
    _random_structure,
    _stack_cosines,
    _stack_power,
    _stack_ratio,
    _top_cosines,
    _truncated_structure,
    expected_q_power,
    reduced_dims,
)
from .ensembles import RngStream, sample_ginibre, sample_haar_unitary
from .errors import DegeneracyError, DimensionError, ParameterError, RegimeError
from .laws import LawParams, law_params, marginal_cdf, marginal_pdf
from .quadrature import quadrature_integrate

MAX_FAILURE_RATE = 1e-3
# draws per chunk, fixed so that a batch's draws never depend on its workers
CHUNK = 2000
# reserved substream channel for the per-draw eigenvalue choice
_REDUCE_CHANNEL = (1 << 31) - 1
# asymptotic two-sided critical constants for the KS statistic
KS_CRITICAL_CONSTANTS = {0.01: 1.628, 0.05: 1.358}
# z-window for Monte Carlo mean acceptance
MEAN_Z_LIMIT = 3.0
# the mean of the reciprocal-eigenvalue sum exists for |m+q-n| >= 1, but its
# Monte Carlo variance blows up near the boundary; the mean experiment only
# runs where a 3-sigma test is meaningful
MEAN_TEST_MIN_GAP = 3


class SamplerId(str, Enum):
    GSVD = "gsvd"
    F_MATRIX = "fmatrix"
    HAAR_BLOCK = "haar"
    Q_POWER = "qpower"


class Experiment(str, Enum):
    EQUIVALENCE = "equivalence"  # GSVD spectrum vs ratio-ensemble eigenvalues
    MARGINAL = "marginal"  # samplers vs the closed-form marginal law
    NORMALIZATION = "normalization"  # quadrature of the marginal density
    Q_POWER_MEAN = "qpower"  # mean power of the shared right factor
    HAAR_CHAIN = "haar"  # Haar-truncation route vs the GSVD route

    @property
    def takes_reduced(self) -> bool:
        """Whether the input is the reduced triple (m', p, n'), not (m, q, n)."""
        return self not in _SAMPLING


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Seeded draws with provenance; ``values`` is (count >= 1, arity), a row per draw."""

    sampler_id: SamplerId
    dims: tuple[int, ...]
    seed: int
    stream_index: int
    values: np.ndarray
    failures: int = 0

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise DimensionError(f"values must be (count >= 1, arity), got {self.values.shape}")
        if not np.all(np.isfinite(self.values)) or np.any(self.values <= 0.0):
            raise DegeneracyError("batch values must be finite and positive")
        self.values.setflags(write=False)

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def arity(self) -> int:
        return self.values.shape[1]


def _chunk_sizes(count: int) -> list[int]:
    return [min(CHUNK, count - start) for start in range(0, count, CHUNK)]


def _over_budget(failures: int, drawn: int) -> bool:
    """Whether ``failures`` discards out of ``drawn`` draws exceed the budget."""
    return failures > max(1.0, MAX_FAILURE_RATE * drawn)


def _fill_chunk(draw_fn, gen: np.random.Generator, quota: int):
    """Draw ``(values, ok)`` rows until the quota is met, dropping and counting rows not ok."""
    rows, filled, failures = [], 0, 0
    while filled < quota:
        values, ok = draw_fn(gen, quota - filled)
        failures += int(np.count_nonzero(~ok))
        if _over_budget(failures, quota + failures):
            raise DegeneracyError(
                f"chunk aborted: {failures} degenerate draws against quota {quota}"
            )
        rows.append(values[ok][: quota - filled])
        filled += rows[-1].shape[0]
    return np.concatenate(rows), failures


def _run_batch(
    sampler_id: SamplerId,
    dims_tuple: tuple[int, ...],
    draw_fn,
    count: int,
    rng: RngStream,
    workers: int,
) -> SampleBatch:
    if count < 1:
        raise DimensionError(f"count must be >= 1, got {count}")
    _check_workers(workers)
    jobs = list(enumerate(_chunk_sizes(count)))
    # numpy's error state is a context variable, which pool threads do not
    # inherit: every chunk runs under the caller's
    state = np.geterr()

    def run(job):
        i, size = job
        with np.errstate(**state):
            return _fill_chunk(draw_fn, rng.substream(i).generator(), size)

    # the chunks fix the draws; the threads only schedule them
    with ThreadPoolExecutor(max_workers=min(workers, len(jobs), os.cpu_count() or 1)) as pool:
        results = list(pool.map(run, jobs))

    values = np.concatenate([r[0] for r in results], axis=0)
    failures = sum(r[1] for r in results)
    if _over_budget(failures, count + failures):
        raise DegeneracyError(
            f"batch aborted: failure rate {failures / (count + failures):.2%} "
            f"exceeds {MAX_FAILURE_RATE:.1%}"
        )
    return SampleBatch(
        sampler_id=sampler_id,
        dims=dims_tuple,
        seed=rng.master_seed,
        stream_index=rng.stream_index,
        values=values,
        failures=failures,
    )


def _pair_draws(dims: ProblemDims, gen: np.random.Generator, want: int) -> np.ndarray:
    """``want`` Gaussian pairs, ``a`` drawn before ``c``, as stacks ``[a; c]``."""
    a = sample_ginibre(dims.m, dims.n, gen, count=want)
    c = sample_ginibre(dims.q, dims.n, gen, count=want)
    return np.concatenate([a, c], axis=1)


def sample_w_gsvd(
    dims: ProblemDims, count: int, rng: RngStream, workers: int = 1
) -> SampleBatch:
    """Spectrum draws from fresh Gaussian pairs via the QR-then-CS kernel."""
    st = _random_structure(dims)

    def draw(gen, want):
        alphas, ok, _ = _stack_cosines(_pair_draws(dims, gen, want), dims.m, st)
        return alphas**2, ok

    # alpha^2 -> w on kept draws only: a rejected one may hold alpha = 1
    batch = _run_batch(SamplerId.GSVD, dims.as_tuple(), draw, count, rng, workers)
    return alpha_sq_to_w(batch)


def sample_w_fmatrix(
    rdims: ReducedDims, count: int, rng: RngStream, workers: int = 1
) -> SampleBatch:
    """Eigenvalue draws of the Gaussian ratio ensemble at reduced dimensions.

    Per draw: Gaussian ``x`` (m' x p) and ``y`` (m' x n'); the values are the
    ``l = min(p, m')`` nonzero eigenvalues of ``x^H (y y^H)^{-1} x``, from the
    engine's batched Cholesky-solve kernel, the one behind
    :func:`gsvd_spectrum_direct`.  A draw whose ``y y^H`` fails the Cholesky
    rank test is discarded and counted on its own.
    """
    mp, p, npr = rdims.m_prime, rdims.p, rdims.n_prime

    def draw(gen, want):
        x = sample_ginibre(mp, p, gen, count=want)
        y = sample_ginibre(mp, npr, gen, count=want)
        return _stack_ratio(x, y)

    return _run_batch(SamplerId.F_MATRIX, rdims.as_tuple(), draw, count, rng, workers)


def sample_alpha_haar(
    dims: ProblemDims,
    count: int,
    rng: RngStream,
    workers: int = 1,
    block: str = "upper_left",
) -> SampleBatch:
    """Interior squared cosines of a truncated Haar unitary.

    Draws an (m+q) x (m+q) Haar matrix and returns the s interior squared
    singular values of its m x n upper-left block (``block="upper_left"``)
    or, equivalently, the eigenvalues of the Gram matrix of the
    complementary lower-right block (``block="lower_right"``): the two
    blocks share their non-one spectrum.  Values are alpha^2, i.e.
    ``w / (1 + w)``; convert with :func:`alpha_sq_to_w`.

    Built by QR, the unitary's first n columns are, up to column phases,
    the Q factor of its Gaussian draw's first n columns, so the upper-left
    route is the cosine-sine step of :func:`sample_w_gsvd` on those columns,
    and the lower-right Gram route (``haar_block_equivalence``) is the one
    with arithmetic of its own.  Neither route sees the column phases: a
    diagonal unitary on the right changes neither block's spectrum.  So
    ``haar_truncation_vs_gsvd`` checks the QR and the streams, not the
    phase step that makes the unitary Haar.
    """
    st = _truncated_structure(dims)
    if block not in ("upper_left", "lower_right"):
        raise ParameterError(f"unknown block {block!r}")
    m, q, n = dims.m, dims.q, dims.n
    dim = m + q

    def draw(gen, want):
        u = sample_haar_unitary(dim, gen, count=want)
        if block == "upper_left":
            alphas, ok = _top_cosines(u[:, :, :n], m, st)
            return alphas**2, ok
        blk = u[:, m:, n:]
        evals = np.linalg.eigvalsh(blk.conj().transpose(0, 2, 1) @ blk)[:, ::-1]
        # the block has no unit singular values: classify as if r = 0
        _, ok = _classify(np.sqrt(np.maximum(evals, 0.0)), replace(st, r=0))
        return evals, ok

    return _run_batch(SamplerId.HAAR_BLOCK, dims.as_tuple(), draw, count, rng, workers)


def sample_q_power(
    dims: ProblemDims, count: int, rng: RngStream, workers: int = 1
) -> SampleBatch:
    """Draws of the right-factor power (sum of reciprocal stack eigenvalues)."""
    _power_gap(dims)

    def draw(gen, want):
        totals, ok = _stack_power(_pair_draws(dims, gen, want))
        return totals[:, None], ok

    return _run_batch(SamplerId.Q_POWER, dims.as_tuple(), draw, count, rng, workers)


def alpha_sq_to_w(batch: SampleBatch) -> SampleBatch:
    """Map alpha^2 values to w = alpha^2 / (1 - alpha^2), keeping provenance."""
    return replace(batch, values=batch.values / (1.0 - batch.values))


def scalar_samples(batch: SampleBatch) -> np.ndarray:
    """One value per draw, suitable for KS testing.

    Within-draw eigenvalues are correlated (they repel), so pooling them
    would break the independence assumption of the KS test; instead one
    eigenvalue per draw is chosen uniformly, using a reserved substream of
    the batch's own stream so the reduction is reproducible.
    """
    gen = RngStream(batch.seed, batch.stream_index).substream(
        _REDUCE_CHANNEL
    ).generator()
    idx = gen.integers(0, batch.arity, size=batch.count)
    return batch.values[np.arange(batch.count), idx]


@dataclass(frozen=True)
class KsReport:
    """Kolmogorov-Smirnov verdict: statistic against asymptotic critical value."""

    statistic: float
    critical_value: float
    n1: int
    n2: int
    alpha_level: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MeanReport:
    """Sample-mean verdict: |z| <= 3 against a closed-form target."""

    estimate: float
    std_error: float
    target: float
    z_score: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _check_alpha(alpha_level: float) -> None:
    if not 0.0 < alpha_level < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha_level}")


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")


def ks_critical_constant(alpha_level: float) -> float:
    """c(alpha) with the two standard levels pinned to their textbook values."""
    if alpha_level in KS_CRITICAL_CONSTANTS:
        return KS_CRITICAL_CONSTANTS[alpha_level]
    _check_alpha(alpha_level)
    return sqrt(-np.log(alpha_level / 2.0) / 2.0)


def _ks_critical_value(alpha_level: float, n1: int, n2: int = 0) -> float:
    """The KS critical value for samples of n1 and n2 values; n2 = 0 is one-sample."""
    c = ks_critical_constant(alpha_level)
    return c * sqrt((n1 + n2) / (n1 * n2)) if n2 else c / sqrt(n1)


def _ks_report(statistic: float, alpha_level: float, n1: int, n2: int = 0) -> KsReport:
    """The verdict ``statistic < critical value``; n2 = 0 is one-sample."""
    crit = _ks_critical_value(alpha_level, n1, n2)
    return KsReport(statistic, crit, n1, n2, alpha_level, passed=statistic < crit)


def ks_two_sample(
    a: SampleBatch, b: SampleBatch, alpha_level: float = 0.01
) -> KsReport:
    """Two-sample KS test on the scalar-reduced batches."""
    x = np.sort(scalar_samples(a))
    y = np.sort(scalar_samples(b))
    n1, n2 = x.size, y.size
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / n1
    cdf_y = np.searchsorted(y, grid, side="right") / n2
    return _ks_report(float(np.max(np.abs(cdf_x - cdf_y))), alpha_level, n1, n2)


def ks_one_sample(
    batch: SampleBatch, params: LawParams, alpha_level: float = 0.01
) -> KsReport:
    """One-sample KS test against the closed-form marginal CDF."""
    x = np.sort(scalar_samples(batch))
    n = x.size
    cdf = marginal_cdf(params, x)
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return _ks_report(float(max(upper, lower)), alpha_level, n)


def mean_report(values: np.ndarray, target: float) -> MeanReport:
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size < 2:
        raise DimensionError("mean test needs at least two values")
    if not np.all(np.isfinite(values)):
        raise DegeneracyError("mean test values must be finite")
    if values.min() == values.max():
        raise DegeneracyError("mean test values have zero spread")
    estimate = float(values.mean())
    std_error = float(values.std(ddof=1) / sqrt(values.size))
    z = (estimate - target) / std_error
    return MeanReport(
        estimate=estimate,
        std_error=std_error,
        target=target,
        z_score=float(z),
        passed=abs(z) <= MEAN_Z_LIMIT,
    )


@dataclass(frozen=True)
class VerificationReport:
    """Deterministic record of one verification experiment."""

    experiment: str
    dims: dict
    seed: int | None
    workers: int  # threads only: not part of to_dict()
    samples: int | None
    alpha_level: float | None
    checks: tuple[tuple[str, dict], ...]
    passed: bool
    elapsed_seconds: float  # timing: not part of to_dict()
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "dims": dict(self.dims),
            "seed": self.seed,
            "samples": self.samples,
            "alpha_level": self.alpha_level,
            "checks": [{"name": name, **report} for name, report in self.checks],
            "passed": self.passed,
            "notes": list(self.notes),
        }


_CALIBRATION_NOTE = (
    "statistical acceptance is asymptotic: the alpha level and sample count "
    "are artifact calibration choices, committed with the seed"
)

# batch source -> (the dimension record it reads, draw(triple, count, rng,
# workers)), valued in w (the two-sample KS statistic is unchanged by the
# monotone map alpha^2 -> w); the CLI's sample command reads it too, so each
# SamplerId value names a source;
# test -> (report(batches, dims, reduced, alpha level), powerless(n, alpha)),
# where powerless says whether n draws per batch leave the test unable to
# reject: a KS statistic never exceeds one, and a mean test needs two draws.
# Samplers and tests are looked up as module globals at call time, so a
# wrapper bound to their names, such as a tracer or a draw counter, sees
# every call.
_SOURCES = {
    "gsvd": (ProblemDims, lambda *run: sample_w_gsvd(*run)),
    "fmatrix": (ReducedDims, lambda *run: sample_w_fmatrix(*run)),
    "haar": (ProblemDims, lambda *run: alpha_sq_to_w(sample_alpha_haar(*run))),
    "haar_lower": (
        ProblemDims,
        lambda *run: alpha_sq_to_w(sample_alpha_haar(*run, block="lower_right")),
    ),
    "qpower": (ProblemDims, lambda *run: sample_q_power(*run)),
}
_TESTS = {
    "ks_two_sample": (
        lambda batches, dims, rd, alpha: ks_two_sample(*batches, alpha),
        lambda n, alpha: _ks_critical_value(alpha, n, n) >= 1.0,
    ),
    "ks_one_sample": (
        lambda batches, dims, rd, alpha: ks_one_sample(*batches, law_params(*rd.as_tuple()), alpha),
        lambda n, alpha: _ks_critical_value(alpha, n) >= 1.0,
    ),
    "mean": (
        lambda batches, dims, rd, alpha: mean_report(batches[0].values, expected_q_power(dims)),
        lambda n, alpha: n < 2,
    ),
}


# experiment -> its checks, (name, test, ((source, stream index), ...)) each.
# The refusals and the record follow from the names the checks read: the
# names in _READS_REDUCED, each source whose record is ReducedDims and the
# test "ks_one_sample", read (m', p, n'), so their experiment refuses s = 0
# and records the triple; the Haar truncation sources in _TRUNCATED, "haar"
# and "haar_lower", refuse dims outside q < n < q + m; and a "mean" check
# refuses |m + q - n| < MEAN_TEST_MIN_GAP
_READS_REDUCED = {"ks_one_sample"} | {s for s, (rec, _) in _SOURCES.items() if rec is ReducedDims}
_TRUNCATED = {"haar", "haar_lower"}
_SAMPLING = {
    Experiment.EQUIVALENCE: (
        ("gsvd_vs_ratio_ensemble", "ks_two_sample", (("gsvd", 0), ("fmatrix", 1))),
    ),
    Experiment.MARGINAL: (
        ("gsvd_vs_marginal_cdf", "ks_one_sample", (("gsvd", 0),)),
        ("ratio_ensemble_vs_marginal_cdf", "ks_one_sample", (("fmatrix", 1),)),
    ),
    Experiment.HAAR_CHAIN: (
        ("haar_truncation_vs_gsvd", "ks_two_sample", (("haar", 0), ("gsvd", 2))),
        ("haar_block_equivalence", "ks_two_sample", (("haar", 0), ("haar_lower", 1))),
    ),
    Experiment.Q_POWER_MEAN: (("power_mean", "mean", (("qpower", 0),)),),
}


def run_experiment(
    experiment: Experiment | str,
    dims: ProblemDims | None = None,
    reduced: ReducedDims | None = None,
    samples: int = 20000,
    seed: int = 0,
    workers: int = 1,
    alpha_level: float = 0.01,
) -> VerificationReport:
    """Run one named experiment and return its deterministic report.

    ``normalization`` needs the reduced triple; the others need the pair
    dimensions ``dims`` and draw each batch they test once, batch ``(source,
    i)`` from ``RngStream(seed, i)``.  Every refusal comes before any
    quadrature or draw, in this order: an ``alpha_level`` outside (0, 1),
    ``samples`` below one and ``workers`` below one raise
    :class:`ParameterError`, for every experiment; a missing input raises
    :class:`RegimeError`; then, as the checks of a sampling experiment
    read them, ``s = 0`` where the reduced triple is read, dims outside
    ``q < n < q + m`` where a Haar truncation is drawn, and a mean test
    closer than ``MEAN_TEST_MIN_GAP`` to ``m + q = n`` raise
    :class:`RegimeError`, ``samples`` so few that some check could not
    reject raises :class:`ParameterError`, and last a negative ``seed``
    raises :class:`ParameterError` from :class:`RngStream`, for every
    experiment.  Each batch source reads the triple of its dimension
    record in ``_SOURCES``, the pair or the reduced one.
    The report is a pure function of the seed; ``workers`` sets threads
    only, and appears in the report's attributes but not in ``to_dict``.
    ``normalization`` draws nothing: it refuses the same bad inputs as the
    others, reads no ``seed``, ``samples`` or ``alpha_level`` after that,
    records each as ``None`` and carries no calibration note.
    """
    experiment = Experiment(experiment)
    _check_alpha(alpha_level)
    if samples < 1:
        raise ParameterError(f"samples = {samples} is too few: no check could reject")
    _check_workers(workers)
    triple = reduced if experiment.takes_reduced else dims
    if triple is None:
        kind = "reduced" if experiment.takes_reduced else "pair"
        raise RegimeError(f"{experiment.value} experiment needs {kind} dimensions")
    sampling = _SAMPLING.get(experiment, ())
    names = {test for _, test, _ in sampling} | {src for *_, reads in sampling for src, _ in reads}
    if names & _READS_REDUCED:
        _random_structure(dims)
    if names & _TRUNCATED:
        _truncated_structure(dims)
    if "mean" in names and (gap := _power_gap(dims)) < MEAN_TEST_MIN_GAP:
        raise RegimeError(
            f"mean test needs |m + q - n| >= {MEAN_TEST_MIN_GAP}, got {gap}: near "
            "m + q = n the sampling variance makes a 3-sigma acceptance meaningless"
        )
    for name, test, _ in sampling:
        if _TESTS[test][1](samples, alpha_level):
            raise ParameterError(f"samples = {samples} is too few: {name} could not reject")
    RngStream(seed)  # the seed's domain is the stream's

    start = time.perf_counter()
    record, checks = asdict(triple), []
    if experiment.takes_reduced:
        params = law_params(*reduced.as_tuple())
        pdf = lambda w: marginal_pdf(params, w)  # noqa: E731
        # pdf * cdf is d(F^2 / 2)/dw, so it integrates to 1/2 for any continuous law
        for name, f, target, tol in (
            ("density_normalization", pdf, 1.0, 1e-6),
            ("cdf_against_density", lambda w: pdf(w) * marginal_cdf(params, w), 0.5, 1e-8),
        ):
            value = quadrature_integrate(f, 1e-8)
            check = {"kind": "quadrature", "value": value, "target": target, "tolerance": tol}
            checks.append((name, {**check, "passed": bool(abs(value - target) <= tol)}))
        seed = samples = alpha_level = None
    else:
        rd = reduced_dims(dims)
        if names & _READS_REDUCED:
            record.update(asdict(rd))
        triples, batches = {ProblemDims: dims, ReducedDims: rd}, {}
        for src, i in dict.fromkeys(key for _, _, reads in sampling for key in reads):
            record_cls, draw = _SOURCES[src]
            batches[src, i] = draw(triples[record_cls], samples, RngStream(seed, i), workers)
        for name, test, reads in sampling:
            read = [batches[key] for key in reads]
            report = _TESTS[test][0](read, dims, rd, alpha_level).to_dict()
            discarded = sum(batch.failures for batch in read)
            checks.append((name, {"kind": test, **report, "discarded": discarded}))
    return VerificationReport(
        experiment=experiment.value,
        dims=record,
        seed=seed,
        workers=workers,
        samples=samples,
        alpha_level=alpha_level,
        checks=tuple(checks),
        passed=all(report["passed"] for _, report in checks),
        elapsed_seconds=time.perf_counter() - start,
        notes=() if experiment.takes_reduced else (_CALIBRATION_NOTE,),
    )

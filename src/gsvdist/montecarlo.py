"""Monte Carlo samplers and the statistical verification harness.

Three independent constructions of the same spectral law are sampled here:
the generalized SVD of a Gaussian pair, the eigenvalues of the Gaussian
ratio ensemble at the mapped reduced dimensions, and the interior squared
singular values of a truncated Haar unitary.  Kolmogorov-Smirnov tests
check that they agree with each other and with the closed-form marginal,
and a mean test checks the closed-form power of the shared right factor.

Batches are drawn in worker chunks; chunk ``i`` uses substream ``i`` of the
batch's stream, and results merge by concatenation in chunk order, so a
report is a pure function of (seed, worker count).  Draws that fail the
rank test, the singular-value classification or a Cholesky factorization
are discarded one by one and counted, and each check reports the count of
its batches as ``discarded``.  One failure budget, 0.1% of the draws made
and never less than one draw, applies to each chunk while it draws and to
the whole batch; exceeding it aborts the batch rather than risk biased
censoring.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from enum import Enum
from math import sqrt
from typing import NamedTuple

import numpy as np

from .engine import (
    ONE_TOL,
    ZERO_TOL,
    ProblemDims,
    ReducedDims,
    Regime,
    _classify,
    _stack_cosines,
    _stack_power,
    _stack_ratio,
    compute_structure,
    expected_q_power,
    reduced_dims,
)
from .ensembles import RngStream, sample_ginibre, sample_haar_unitary
from .errors import DegeneracyError, DimensionError, ParameterError, RegimeError
from .laws import LawParams, law_params, marginal_cdf, marginal_pdf
from .quadrature import quadrature_integrate

MAX_FAILURE_RATE = 1e-3
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
    """Seeded draws with provenance: one row per draw, one column per value."""

    sampler_id: SamplerId
    dims: tuple[int, ...]
    seed: int
    stream_index: int
    count: int
    arity: int
    values: np.ndarray
    failures: int = 0

    def __post_init__(self):
        if self.values.shape != (self.count, self.arity):
            raise DimensionError(
                f"values shape {self.values.shape} != (count, arity) = "
                f"({self.count}, {self.arity})"
            )
        if not np.all(np.isfinite(self.values)) or np.any(self.values <= 0.0):
            raise DegeneracyError("batch values must be finite and positive")
        self.values.setflags(write=False)


def _chunk_sizes(count: int, workers: int) -> list[int]:
    base, extra = divmod(count, workers)
    return [base + (1 if i < extra else 0) for i in range(workers)]


def _over_budget(failures: int, drawn: int) -> bool:
    """Whether ``failures`` discards out of ``drawn`` draws exceed the budget."""
    return failures > max(1.0, MAX_FAILURE_RATE * drawn)


def _fill_chunk(draw_fn, gen: np.random.Generator, quota: int, arity: int):
    """Draw until the quota is met, discarding and counting bad rows."""
    rows = np.empty((quota, arity))
    filled = 0
    failures = 0
    while filled < quota:
        need = quota - filled
        good, bad = draw_fn(gen, need)
        failures += bad
        if _over_budget(failures, quota + failures):
            raise DegeneracyError(
                f"chunk aborted: {failures} degenerate draws against quota {quota}"
            )
        take = min(good.shape[0], need)
        rows[filled : filled + take] = good[:take]
        filled += take
    return rows, failures


def _run_batch(
    sampler_id: SamplerId,
    dims_tuple: tuple[int, ...],
    arity: int,
    draw_fn,
    count: int,
    rng: RngStream,
    workers: int,
) -> SampleBatch:
    if count < 1:
        raise DimensionError(f"count must be >= 1, got {count}")
    if workers < 1:
        raise DimensionError(f"workers must be >= 1, got {workers}")
    sizes = _chunk_sizes(count, workers)
    jobs = [
        (rng.substream(i).generator(), size)
        for i, size in enumerate(sizes)
        if size > 0
    ]

    def run(job):
        gen, size = job
        return _fill_chunk(draw_fn, gen, size, arity)

    if len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(job) for job in jobs]

    values = np.concatenate([r[0] for r in results], axis=0)
    failures = sum(r[1] for r in results)
    if _over_budget(failures, count + failures):
        raise DegeneracyError(
            f"batch aborted: failure rate {failures / (count + failures):.2%} "
            "exceeds 0.1%"
        )
    return SampleBatch(
        sampler_id=sampler_id,
        dims=dims_tuple,
        seed=rng.master_seed,
        stream_index=rng.stream_index,
        count=count,
        arity=arity,
        values=values,
        failures=failures,
    )


def sample_w_gsvd(
    dims: ProblemDims, count: int, rng: RngStream, workers: int = 1
) -> SampleBatch:
    """Spectrum draws from fresh Gaussian pairs via the QR-then-CS kernel."""
    st = compute_structure(dims)
    if st.regime is Regime.DETERMINISTIC:
        raise RegimeError(
            f"dims {dims.as_tuple()} are deterministic (s = 0): nothing to sample"
        )
    m, q, n = dims.m, dims.q, dims.n

    def draw(gen, want):
        a = sample_ginibre(m, n, gen, count=want)
        c = sample_ginibre(q, n, gen, count=want)
        alphas, ok, _ = _stack_cosines(np.concatenate([a, c], axis=1), m, st)
        alphas = alphas[ok]
        return alphas**2 / (1.0 - alphas**2), int(np.count_nonzero(~ok))

    return _run_batch(SamplerId.GSVD, dims.as_tuple(), st.s, draw, count, rng, workers)


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
    l = rdims.l

    def draw(gen, want):
        x = sample_ginibre(mp, p, gen, count=want)
        y = sample_ginibre(mp, npr, gen, count=want)
        w, ok = _stack_ratio(x, y, l)
        return w[ok], int(np.count_nonzero(~ok))

    return _run_batch(
        SamplerId.F_MATRIX, rdims.as_tuple(), l, draw, count, rng, workers
    )


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
    """
    st = compute_structure(dims)
    if st.regime is not Regime.INTERMEDIATE:
        raise RegimeError(
            f"haar truncation sampling needs q < n < q + m, got {dims.as_tuple()} "
            f"({st.regime.value})"
        )
    if block not in ("upper_left", "lower_right"):
        raise ValueError(f"unknown block {block!r}")
    m, q, n = dims.m, dims.q, dims.n
    dim = m + q

    def draw(gen, want):
        u = sample_haar_unitary(dim, gen, count=want)
        if block == "upper_left":
            alphas, ok = _classify(np.linalg.svd(u[:, :m, :n], compute_uv=False), st)
            return alphas[ok] ** 2, int(np.count_nonzero(~ok))
        blk = u[:, m:, n:]
        gram = blk.conj().transpose(0, 2, 1) @ blk
        evals = np.linalg.eigvalsh(gram)[:, ::-1]
        ok = (evals[:, -1] > ZERO_TOL**2) & (evals[:, 0] < 1.0 - 2.0 * ONE_TOL)
        return evals[ok], int(np.count_nonzero(~ok))

    return _run_batch(
        SamplerId.HAAR_BLOCK, dims.as_tuple(), st.s, draw, count, rng, workers
    )


def sample_q_power(
    dims: ProblemDims, count: int, rng: RngStream, workers: int = 1
) -> SampleBatch:
    """Draws of the right-factor power (sum of reciprocal stack eigenvalues)."""
    m, q, n = dims.m, dims.q, dims.n
    if m + q == n:
        raise RegimeError("power sampling requires m + q != n")

    def draw(gen, want):
        a = sample_ginibre(m, n, gen, count=want)
        c = sample_ginibre(q, n, gen, count=want)
        totals, ok = _stack_power(np.concatenate([a, c], axis=1))
        return totals[ok][:, None], int(np.count_nonzero(~ok))

    return _run_batch(SamplerId.Q_POWER, dims.as_tuple(), 1, draw, count, rng, workers)


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
    if batch.arity == 1:
        return batch.values[:, 0]
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


def ks_critical_constant(alpha_level: float) -> float:
    """c(alpha) with the two standard levels pinned to their textbook values."""
    if alpha_level in KS_CRITICAL_CONSTANTS:
        return KS_CRITICAL_CONSTANTS[alpha_level]
    _check_alpha(alpha_level)
    return sqrt(-np.log(alpha_level / 2.0) / 2.0)


def ks_two_sample(
    a: SampleBatch, b: SampleBatch, alpha_level: float = 0.01
) -> KsReport:
    """Two-sample KS test on the scalar-reduced batches."""
    x = np.sort(scalar_samples(a))
    y = np.sort(scalar_samples(b))
    n1, n2 = x.size, y.size
    if n1 == 0 or n2 == 0:
        raise DimensionError("empty batch in KS test")
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / n1
    cdf_y = np.searchsorted(y, grid, side="right") / n2
    stat = float(np.max(np.abs(cdf_x - cdf_y)))
    crit = ks_critical_constant(alpha_level) * sqrt((n1 + n2) / (n1 * n2))
    return KsReport(
        statistic=stat,
        critical_value=crit,
        n1=n1,
        n2=n2,
        alpha_level=alpha_level,
        passed=stat < crit,
    )


def ks_one_sample(
    batch: SampleBatch, params: LawParams, alpha_level: float = 0.01
) -> KsReport:
    """One-sample KS test against the closed-form marginal CDF."""
    x = np.sort(scalar_samples(batch))
    n = x.size
    if n == 0:
        raise DimensionError("empty batch in KS test")
    cdf = marginal_cdf(params, x)
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    stat = float(max(upper, lower))
    crit = ks_critical_constant(alpha_level) / sqrt(n)
    return KsReport(
        statistic=stat,
        critical_value=crit,
        n1=n,
        n2=0,
        alpha_level=alpha_level,
        passed=stat < crit,
    )


def mean_report(values: np.ndarray, target: float) -> MeanReport:
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size < 2:
        raise DimensionError("mean test needs at least two values")
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
    seed: int
    workers: int
    samples: int
    alpha_level: float | None
    checks: tuple[tuple[str, dict], ...]
    passed: bool
    elapsed_seconds: float
    notes: tuple[str, ...]

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "experiment": self.experiment,
            "dims": dict(self.dims),
            "seed": self.seed,
            "workers": self.workers,
            "samples": self.samples,
            "alpha_level": self.alpha_level,
            "checks": [{"name": name, **report} for name, report in self.checks],
            "passed": self.passed,
            "notes": list(self.notes),
        }
        if include_timing:
            out["elapsed_seconds"] = self.elapsed_seconds
        return out


_CALIBRATION_NOTE = (
    "statistical acceptance is asymptotic: the alpha level and sample count "
    "are artifact calibration choices, committed with the seed"
)

# batch source -> draw(dims, reduced, count, rng, workers), valued in w (the
# two-sample KS statistic is unchanged by the monotone map alpha^2 -> w);
# test -> report(batches, dims, reduced, alpha level).  Samplers and tests
# are looked up as module globals at call time, so a wrapper bound to their
# names, such as a tracer or a draw counter, sees every call.
_SOURCES = {
    "gsvd": lambda dims, rd, *run: sample_w_gsvd(dims, *run),
    "fmatrix": lambda dims, rd, *run: sample_w_fmatrix(rd, *run),
    "haar": lambda dims, rd, *run: alpha_sq_to_w(sample_alpha_haar(dims, *run)),
    "haar_lower": lambda dims, rd, *run: alpha_sq_to_w(
        sample_alpha_haar(dims, *run, block="lower_right")
    ),
    "qpower": lambda dims, rd, *run: sample_q_power(dims, *run),
}
_TESTS = {
    "ks_two_sample": lambda batches, dims, rd, alpha: ks_two_sample(*batches, alpha),
    "ks_one_sample": lambda batches, dims, rd, alpha: ks_one_sample(
        *batches, law_params(*rd.as_tuple()), alpha
    ),
    "mean": lambda batches, dims, rd, alpha: mean_report(
        batches[0].values, expected_q_power(dims)
    ),
}


class _Sampling(NamedTuple):
    checks: tuple  # (name, test, ((source, stream index), ...)) per check
    reads_reduced: bool = False  # refuses s = 0 and records (m', p, n')
    mean_gap: bool = False  # refuses |m + q - n| < MEAN_TEST_MIN_GAP


_SAMPLING = {
    Experiment.EQUIVALENCE: _Sampling(
        (("gsvd_vs_ratio_ensemble", "ks_two_sample", (("gsvd", 0), ("fmatrix", 1))),),
        reads_reduced=True,
    ),
    Experiment.MARGINAL: _Sampling(
        (
            ("gsvd_vs_marginal_cdf", "ks_one_sample", (("gsvd", 0),)),
            ("ratio_ensemble_vs_marginal_cdf", "ks_one_sample", (("fmatrix", 1),)),
        ),
        reads_reduced=True,
    ),
    Experiment.HAAR_CHAIN: _Sampling(
        (
            ("haar_truncation_vs_gsvd", "ks_two_sample", (("haar", 0), ("gsvd", 2))),
            ("haar_block_equivalence", "ks_two_sample", (("haar", 0), ("haar_lower", 1))),
        )
    ),
    Experiment.Q_POWER_MEAN: _Sampling(
        (("power_mean", "mean", (("qpower", 0),)),), mean_gap=True
    ),
}


def _sampling_checks(experiment, dims, samples, seed, workers, alpha_level):
    _check_alpha(alpha_level)
    if dims is None:
        raise RegimeError(f"{experiment.value} experiment needs pair dimensions")
    spec = _SAMPLING[experiment]
    rd = reduced_dims(dims)
    record = asdict(dims)
    if spec.reads_reduced:
        if rd is None:
            raise RegimeError(f"dims {dims.as_tuple()} have no random spectrum (s = 0)")
        record.update(asdict(rd))
    gap = abs(dims.m + dims.q - dims.n)
    if spec.mean_gap and gap < MEAN_TEST_MIN_GAP:
        raise RegimeError(
            f"mean test needs |m + q - n| >= {MEAN_TEST_MIN_GAP}, got {gap}: the "
            "closed-form mean is undefined at m + q = n, and near that boundary "
            "the sampling variance makes a 3-sigma acceptance meaningless"
        )

    batches = {
        (src, i): _SOURCES[src](dims, rd, samples, RngStream(seed, i), workers)
        for src, i in dict.fromkeys(key for _, _, reads in spec.checks for key in reads)
    }
    checks = []
    for name, test, reads in spec.checks:
        read = [batches[key] for key in reads]
        report = _TESTS[test](read, dims, rd, alpha_level).to_dict()
        discarded = sum(batch.failures for batch in read)
        checks.append((name, {"kind": test, **report, "discarded": discarded}))
    return record, checks


def _normalization_checks(reduced):
    if reduced is None:
        raise RegimeError("normalization experiment needs reduced dimensions")
    params = law_params(*reduced.as_tuple())
    record = asdict(reduced)
    integral = quadrature_integrate(lambda w: marginal_pdf(params, w), 1e-8)
    tail = float(marginal_cdf(params, np.inf))
    checks = []
    for name, kind, value, tol in (
        ("density_normalization", "quadrature", integral, 1e-6),
        ("cdf_upper_limit", "limit", tail, 1e-8),
    ):
        check = {"kind": kind, "value": value, "target": 1.0, "tolerance": tol}
        checks.append((name, {**check, "passed": bool(abs(value - 1.0) <= tol)}))
    return record, checks


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
    i)`` from ``RngStream(seed, i)``.  A missing input, ``s = 0`` where the
    reduced triple is read, or a mean test closer than ``MEAN_TEST_MIN_GAP``
    to ``m + q = n`` raises :class:`RegimeError` before any draw, and an
    ``alpha_level`` outside (0, 1) raises :class:`ParameterError` there.
    The report is bit-identical across runs for fixed (seed, workers).
    """
    experiment = Experiment(experiment)
    start = time.perf_counter()
    if experiment.takes_reduced:
        dims_record, checks = _normalization_checks(reduced)
    else:
        dims_record, checks = _sampling_checks(
            experiment, dims, samples, seed, workers, alpha_level
        )
    return VerificationReport(
        experiment=experiment.value,
        dims=dims_record,
        seed=seed,
        workers=workers,
        samples=samples,
        alpha_level=None if experiment.takes_reduced else alpha_level,
        checks=tuple(checks),
        passed=all(report["passed"] for _, report in checks),
        elapsed_seconds=time.perf_counter() - start,
        notes=(_CALIBRATION_NOTE,),
    )

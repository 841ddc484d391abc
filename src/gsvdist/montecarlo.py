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
its batches as ``discarded``; a failure rate above 0.1% aborts the batch
rather than risk biased censoring.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from enum import Enum
from math import sqrt

import numpy as np

from .engine import (
    ONE_TOL,
    RANK_TOL,
    ZERO_TOL,
    ProblemDims,
    ReducedDims,
    Regime,
    _classify,
    _stack_cosines,
    _stack_power,
    compute_structure,
    expected_q_power,
    reduced_dims,
)
from .ensembles import RngStream, sample_ginibre, sample_haar_unitary
from .errors import DegeneracyError, DimensionError, RegimeError
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


def _fill_chunk(draw_fn, gen: np.random.Generator, quota: int, arity: int):
    """Draw until the quota is met, discarding and counting bad rows."""
    rows = np.empty((quota, arity))
    filled = 0
    failures = 0
    while filled < quota:
        need = quota - filled
        good, bad = draw_fn(gen, need)
        failures += bad
        if failures > MAX_FAILURE_RATE * quota + 100:
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
    if failures > MAX_FAILURE_RATE * (count + failures):
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
    ``l = min(p, m')`` nonzero eigenvalues of ``x^H (y y^H)^{-1} x``, formed
    through a Cholesky solve so the product is Hermitian by construction.
    A draw whose ``y y^H`` is singular is discarded and counted on its own.
    """
    mp, p, npr = rdims.m_prime, rdims.p, rdims.n_prime
    l = rdims.l

    def draw(gen, want):
        x = sample_ginibre(mp, p, gen, count=want)
        y = sample_ginibre(mp, npr, gen, count=want)
        gram = y @ y.conj().transpose(0, 2, 1)
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            # a singular Gram matrix has probability zero; drop only its
            # draws, keeping rows conditioned well enough for Cholesky
            evals = np.linalg.eigvalsh(gram)
            posdef = evals[:, 0] > RANK_TOL * evals[:, -1]
            x, chol = x[posdef], np.linalg.cholesky(gram[posdef])
        z = np.linalg.solve(chol, x)
        ratio = z.conj().transpose(0, 2, 1) @ z
        evals = np.linalg.eigvalsh(ratio)
        w = evals[:, ::-1][:, :l]
        ok = np.all(w > 0.0, axis=1) & np.all(np.isfinite(w), axis=1)
        return w[ok], want - int(np.count_nonzero(ok))

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


def ks_critical_constant(alpha_level: float) -> float:
    """c(alpha) with the two standard levels pinned to their textbook values."""
    if alpha_level in KS_CRITICAL_CONSTANTS:
        return KS_CRITICAL_CONSTANTS[alpha_level]
    if not 0.0 < alpha_level < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha_level}")
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


def _check(kind: str, report: KsReport | MeanReport, *batches: SampleBatch) -> dict:
    """A sampling check's payload: the test report and the draws it discarded."""
    discarded = sum(batch.failures for batch in batches)
    return {"kind": kind, **report.to_dict(), "discarded": discarded}


_CALIBRATION_NOTE = (
    "statistical acceptance is asymptotic: the alpha level and sample count "
    "are artifact calibration choices, committed with the seed"
)


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

    ``equivalence``, ``marginal``, ``haar`` and ``qpower`` need the pair
    dimensions ``dims``; ``normalization`` needs the reduced triple.  The
    report is bit-identical across runs for fixed (seed, workers).
    """
    experiment = Experiment(experiment)
    start = time.perf_counter()
    checks: list[tuple[str, dict]] = []
    notes = [_CALIBRATION_NOTE]
    dims_record: dict = {}

    if experiment is Experiment.NORMALIZATION:
        if reduced is None:
            raise RegimeError("normalization experiment needs reduced dimensions")
        params = law_params(*reduced.as_tuple())
        dims_record = {
            "m_prime": reduced.m_prime,
            "p": reduced.p,
            "n_prime": reduced.n_prime,
        }
        integral = quadrature_integrate(lambda w: marginal_pdf(params, w), 1e-8)
        checks.append(
            (
                "density_normalization",
                {
                    "kind": "quadrature",
                    "value": integral,
                    "target": 1.0,
                    "tolerance": 1e-6,
                    "passed": bool(abs(integral - 1.0) <= 1e-6),
                },
            )
        )
        tail = float(marginal_cdf(params, np.inf))
        checks.append(
            (
                "cdf_upper_limit",
                {
                    "kind": "limit",
                    "value": tail,
                    "target": 1.0,
                    "tolerance": 1e-8,
                    "passed": bool(abs(tail - 1.0) <= 1e-8),
                },
            )
        )
    else:
        if dims is None:
            raise RegimeError(f"{experiment.value} experiment needs pair dimensions")
        dims_record = {"m": dims.m, "q": dims.q, "n": dims.n}

        if experiment is Experiment.EQUIVALENCE:
            rd = reduced_dims(dims)
            if rd is None:
                raise RegimeError(
                    f"dims {dims.as_tuple()} are deterministic: no spectrum to compare"
                )
            batch_g = sample_w_gsvd(dims, samples, RngStream(seed, 0), workers)
            batch_f = sample_w_fmatrix(rd, samples, RngStream(seed, 1), workers)
            report = ks_two_sample(batch_g, batch_f, alpha_level)
            check = _check("ks_two_sample", report, batch_g, batch_f)
            checks.append(("gsvd_vs_ratio_ensemble", check))
            dims_record.update(
                {"m_prime": rd.m_prime, "p": rd.p, "n_prime": rd.n_prime}
            )

        elif experiment is Experiment.MARGINAL:
            rd = reduced_dims(dims)
            if rd is None:
                raise RegimeError(
                    f"dims {dims.as_tuple()} are deterministic: no marginal law"
                )
            params = law_params(*rd.as_tuple())
            batch_g = sample_w_gsvd(dims, samples, RngStream(seed, 0), workers)
            report_g = ks_one_sample(batch_g, params, alpha_level)
            checks.append(
                ("gsvd_vs_marginal_cdf", _check("ks_one_sample", report_g, batch_g))
            )
            batch_f = sample_w_fmatrix(rd, samples, RngStream(seed, 1), workers)
            report_f = ks_one_sample(batch_f, params, alpha_level)
            check = _check("ks_one_sample", report_f, batch_f)
            checks.append(("ratio_ensemble_vs_marginal_cdf", check))
            dims_record.update(
                {"m_prime": rd.m_prime, "p": rd.p, "n_prime": rd.n_prime}
            )

        elif experiment is Experiment.HAAR_CHAIN:
            batch_h = sample_alpha_haar(
                dims, samples, RngStream(seed, 0), workers, block="upper_left"
            )
            batch_h2 = sample_alpha_haar(
                dims, samples, RngStream(seed, 1), workers, block="lower_right"
            )
            batch_g = sample_w_gsvd(dims, samples, RngStream(seed, 2), workers)
            report_chain = ks_two_sample(alpha_sq_to_w(batch_h), batch_g, alpha_level)
            check = _check("ks_two_sample", report_chain, batch_h, batch_g)
            checks.append(("haar_truncation_vs_gsvd", check))
            report_blocks = ks_two_sample(batch_h, batch_h2, alpha_level)
            check = _check("ks_two_sample", report_blocks, batch_h, batch_h2)
            checks.append(("haar_block_equivalence", check))

        elif experiment is Experiment.Q_POWER_MEAN:
            gap = abs(dims.m + dims.q - dims.n)
            if gap == 0:
                raise RegimeError("expectation undefined at m + q = n")
            if gap < MEAN_TEST_MIN_GAP:
                raise RegimeError(
                    f"mean test needs |m + q - n| >= {MEAN_TEST_MIN_GAP}: the "
                    "sampling variance near the boundary makes a 3-sigma "
                    "acceptance meaningless (the closed-form mean itself exists "
                    "for any nonzero gap)"
                )
            target = expected_q_power(dims)
            batch = sample_q_power(dims, samples, RngStream(seed, 0), workers)
            report = mean_report(batch.values, target)
            checks.append(("power_mean", _check("mean", report, batch)))

        else:  # pragma: no cover - exhaustive enum
            raise RegimeError(f"unknown experiment {experiment}")

    passed = all(report["passed"] for _, report in checks)
    elapsed = time.perf_counter() - start
    return VerificationReport(
        experiment=experiment.value,
        dims=dims_record,
        seed=seed,
        workers=workers,
        samples=samples,
        alpha_level=None if experiment is Experiment.NORMALIZATION else alpha_level,
        checks=tuple(checks),
        passed=passed,
        elapsed_seconds=elapsed,
        notes=tuple(notes),
    )

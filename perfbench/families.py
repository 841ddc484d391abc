"""The four benchmark families, each run as one pass of units.

A pass object lists its units (zero-argument callables), which the worker
runs in order.  Each unit times its own calls into gsvdist and records them
as samples, grouped by kind and keyed by item (an experiment, a triple, a
call of one pair, a command), so that repeated passes can be reduced item
by item (``summary.py``).  Inputs
are made before the timed calls unless drawing is the operation.  Output
checks run outside the timed region; an exception or a failed check counts
as a failed operation, a statistical rejection as ``verdicts_failed``.  A
traced pass also reports its per-layer metrics, read from the spans.  All
calls go through the ``gsvdist`` package namespace, so the tracer's
rebinding sees them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import gsvdist as g
from tracing import SpanIndex, median_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
clock = time.perf_counter


class Pass:
    """Counts, samples and per-unit operation time of one pass."""

    def __init__(self, seed: int, smoke: bool, tracer):
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.verdicts_failed = 0
        self.messages: list[str] = []
        self.samples: dict[str, dict[str, float]] = {}
        self.unit_s: list[float] = []

    def units(self) -> list:
        raise NotImplementedError

    def layer(self) -> dict:
        raise NotImplementedError

    def fail(self, what: str, why) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(f"{what}: {why}")

    def record(self, group: str, item, value: float) -> None:
        self.samples.setdefault(group, {})[str(item)] = value

    def result(self) -> dict:
        out = {
            "unit_s": self.unit_s,
            "samples": self.samples,
            "attempted": self.attempted,
            "failed": self.failed,
            "verdicts_failed": self.verdicts_failed,
            "messages": self.messages,
        }
        if self.tracer.traced:
            out["layer"] = self.layer()
        return out


# ---- verify: the paper's verification path ----------------------------------

# (experiment, dims, samples, workers): the sizes tests/test_acceptance.py
# pins, plus the wide (8,10,12) case where BLAS work per draw and the thread
# pool matter
VERIFY_PLAN = (
    ("equivalence", (4, 5, 3), 20_000, 1),
    ("equivalence", (3, 4, 5), 20_000, 1),
    ("haar", (2, 3, 4), 20_000, 1),
    ("marginal", (2, 3, 2), 20_000, 1),
    ("qpower", (2, 2, 8), 100_000, 1),
    ("qpower", (3, 3, 2), 100_000, 1),
    ("equivalence", (8, 10, 12), 20_000, 2),
    ("marginal", (8, 10, 12), 20_000, 2),
)
SMOKE_DIVISOR = 10
SMOKE_EXPERIMENTS = 6
PARALLEL_DIMS = (8, 10, 12)
SAMPLERS = {
    "sample_w_gsvd": "gsvd",
    "sample_w_fmatrix": "fmatrix",
    "sample_alpha_haar": "haar",
    "sample_q_power": "qpower",
}


def _report_problem(report, samples: int) -> str | None:
    """Structural check of a verification report; None when it is sound."""
    if not report.checks:
        return "report has no checks"
    for name, check in report.checks:
        if not isinstance(check.get("passed"), bool):
            return f"{name}: verdict is not a bool"
        kind = check.get("kind")
        if kind in ("ks_two_sample", "ks_one_sample"):
            stat = check["statistic"]
            if not (0.0 <= stat <= 1.0) or check["n1"] != samples:
                return f"{name}: statistic {stat} or n1 {check['n1']} out of range"
        elif kind == "mean":
            if not all(math.isfinite(check[k]) for k in ("estimate", "std_error", "z_score")):
                return f"{name}: non-finite mean report"
        else:
            return f"{name}: unexpected check kind {kind!r}"
    if report.passed != all(c["passed"] for _, c in report.checks):
        return "overall verdict disagrees with its checks"
    return None


class DrawCounter:
    """Counts the draws ``run_experiment`` makes, as each returned
    ``SampleBatch.count`` reports them.

    The samplers are rebound in ``gsvdist.montecarlo``, where
    ``run_experiment`` looks them up at call time; the wrapper adds one
    Python call per batch and no timing."""

    def __init__(self):
        self.draws = 0
        mc = sys.modules["gsvdist.montecarlo"]
        for fn in SAMPLERS:
            setattr(mc, fn, self._counting(getattr(mc, fn)))

    def _counting(self, sampler):
        def counting(*args, **kwargs):
            batch = sampler(*args, **kwargs)
            self.draws += batch.count
            return batch

        return counting


class VerifyPass(Pass):
    def units(self):
        self.counter = DrawCounter()
        # the smoke pass leaves out the wide case and its l = 6 table build
        plan = VERIFY_PLAN[:SMOKE_EXPERIMENTS] if self.smoke else VERIFY_PLAN
        return [lambda i=i: self._experiment(i) for i in range(len(plan))]

    def _experiment(self, i: int) -> None:
        experiment, dims, samples, workers = VERIFY_PLAN[i]
        if self.smoke:
            samples //= SMOKE_DIVISOR
        self.attempted += 1
        drawn = self.counter.draws
        t0 = clock()
        try:
            with self.tracer.span("bench.experiment"):
                report = g.run_experiment(
                    experiment, dims=g.ProblemDims(*dims), samples=samples,
                    seed=self.seed, workers=workers,
                )
        except Exception as exc:  # counted as a failed operation
            self.fail(f"{experiment}{dims}", repr(exc))
            return
        finally:
            self.unit_s.append(clock() - t0)
        problem = _report_problem(report, samples)
        if problem:
            self.fail(f"{experiment}{dims}", problem)
            return
        self.record("experiment_s", i, self.unit_s[-1])
        self.record("draws", i, self.counter.draws - drawn)
        self.verdicts_failed += not report.passed

    def layer(self) -> dict:
        # the plain single-threaded baseline beside the workers = 2 draw
        count = 20_000 // (SMOKE_DIVISOR if self.smoke else 1)
        dims = g.ProblemDims(*PARALLEL_DIMS)
        took = {}
        for workers in (1, 2):
            t0 = clock()
            with self.tracer.span(f"bench.parallel.w{workers}"):
                g.sample_w_gsvd(dims, count, g.RngStream(self.seed, 0), workers)
            took[workers] = clock() - t0

        idx = SpanIndex(self.tracer.spans)
        in_experiment = lambda i: idx.under(i, "bench.experiment")  # noqa: E731
        out = {
            "ensembles.calls": sum(map(in_experiment, idx.named("ensembles."))),
            # engine calls that carry matrix data; the O(1) structure helpers
            # (compute_structure, reduced_dims) are not engine work
            "engine.calls": sum(
                1 for i in idx.named("engine.") if idx.info(i, "arrays") and in_experiment(i)
            ),
            "laws.cdf_in_ks_s": sum(
                idx.duration(i) for i in idx.named("laws.marginal_cdf", "montecarlo.ks_one_sample")
            ),
            "montecarlo.ks_self_s": sum(
                idx.self_time(i)
                for name in ("montecarlo.ks_one_sample", "montecarlo.ks_two_sample")
                for i in idx.named(name)
            ),
            "montecarlo.mean_s": sum(idx.duration(i) for i in idx.named("montecarlo.mean_report")),
            "montecarlo.experiment_self_s": sum(
                idx.self_time(i) for i in idx.named("montecarlo.run_experiment")
            ),
            "montecarlo.parallel_efficiency": took[1] / (2.0 * took[2]),
        }
        drawn = discarded = 0
        for fn, sid in SAMPLERS.items():
            ids = [i for i in idx.named(f"montecarlo.{fn}") if in_experiment(i)]
            busy = sum(idx.duration(i) for i in ids)
            count = sum(idx.info(i, "count", 0) for i in ids)
            drawn += count
            discarded += sum(idx.info(i, "failures", 0) for i in ids)
            out[f"montecarlo.{sid}.busy_s"] = busy
            out[f"montecarlo.{sid}.draws_per_s"] = count / busy
        out["montecarlo.discard_ratio"] = discarded / (drawn + discarded)
        return out


# ---- laws: the closed-form layer alone ---------------------------------------

# the CLI default grid
LAW_GRID = np.geomspace(1e-3, 1e3, 200)
LAW_ANCHORS = {(1, 1, 1): 1.0, (2, 1, 2): 2.0, (2, 2, 2): 6.0}
# warm evaluation on a large grid: one triple each of small, middle and
# largest order l in the sweep
BIG_TRIPLES = {False: ((2, 2, 2), (3, 4, 6), (6, 6, 8)), True: ((2, 2, 2), (3, 4, 5), (4, 4, 5))}
BIG_POINTS = {False: 200_000, True: 50_000}
LAW_FUNCTIONS = (("pdf", "marginal_pdf"), ("cdf", "marginal_cdf"),
                 ("recip", "marginal_pdf_reciprocal"))


def law_triples(smoke: bool) -> list[tuple[int, int, int]]:
    """1 <= m', p <= 6 and m' <= n' <= 8 (198 triples), or a small corner.

    l = 7 is left out: one cold l = 7 build takes seconds and would set the
    whole workload."""
    top, top_n = (4, 5) if smoke else (6, 8)
    return [(mp, p, npr) for mp in range(1, top + 1) for p in range(1, top + 1)
            for npr in range(mp, top_n + 1)]


def _law_tables(params):
    return tuple(getattr(g, fn)(params, LAW_GRID) for _, fn in LAW_FUNCTIONS)


def _table_problem(params, pdf, cdf, recip, integral) -> str | None:
    if abs(integral - 1.0) > 1e-6:
        return f"|integral - 1| = {abs(integral - 1.0):.3e}"
    rel = np.max(np.abs(pdf - recip) / np.maximum(pdf, 1e-300))
    if not rel <= 1e-9:
        return f"reciprocal identity deviates by {rel:.3e}"
    if not (np.all(cdf >= 0.0) and np.all(cdf <= 1.0) and np.all(np.diff(cdf) >= 0.0)):
        return "cdf leaves [0, 1] or decreases"
    tail = float(g.marginal_cdf(params, np.inf))
    if abs(tail - 1.0) > 1e-8:
        return f"cdf(inf) = {tail!r}"
    return None


class LawsPass(Pass):
    def units(self):
        rng = np.random.default_rng(self.seed)
        self.big = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), BIG_POINTS[self.smoke]))
        # the anchors run after the sweep: their pdf call builds the (2,2,2)
        # table, which the sweep must find cold
        return ([lambda t=t: self._triple(t) for t in law_triples(self.smoke)]
                + [self._anchors]
                + [lambda t=t: self._big_grid(t) for t in BIG_TRIPLES[self.smoke]])

    def _anchors(self) -> None:
        t0 = clock()
        with self.tracer.span("bench.anchor"):
            anchors = {t: math.exp(g.log_norm_constant(*t)) for t in LAW_ANCHORS}
            pdf_one = g.marginal_pdf(g.law_params(2, 2, 2), 1.0)
        self.unit_s.append(clock() - t0)
        self.attempted += len(LAW_ANCHORS) + 1
        for t, target in LAW_ANCHORS.items():
            if abs(anchors[t] - target) > 1e-10:
                self.fail(f"M{t}", f"{anchors[t]!r} != {target}")
        if abs(pdf_one - 0.125) > 1e-12:
            self.fail("pdf(1) at (2,2,2)", repr(pdf_one))

    def _triple(self, triple) -> None:
        params = g.law_params(*triple)
        self.attempted += 3
        t0 = clock()
        try:
            with self.tracer.span("bench.cold"):
                pdf, cdf, recip = _law_tables(params)
            t1 = clock()
            with self.tracer.span("bench.warm"):
                _law_tables(params)
            t2 = clock()
            with self.tracer.span("bench.quad"):
                integral = g.quadrature_integrate(lambda w: g.marginal_pdf(params, w), 1e-8)
            t3 = clock()
        except Exception as exc:  # counted as a failed operation
            self.unit_s.append(clock() - t0)
            self.fail(f"triple {triple}", repr(exc))
            return
        self.unit_s.append(t3 - t0)
        self.record("cold_s", triple, t1 - t0)
        self.record("quad_s", triple, t3 - t2)
        problem = _table_problem(params, pdf, cdf, recip, integral)
        if problem:
            self.fail(f"triple {triple}", problem)

    def _big_grid(self, triple) -> None:
        params = g.law_params(*triple)
        busy = 0.0
        with self.tracer.span("bench.grid"):
            for key, fn in LAW_FUNCTIONS:
                self.attempted += 1
                t0 = clock()
                values = getattr(g, fn)(params, self.big)
                took = clock() - t0
                busy += took
                self.record(f"grid_{key}_s", triple, took)
                if not (np.all(np.isfinite(values)) and np.all(values >= 0.0)):
                    self.fail(f"{key} on the large grid at {triple}", "non-finite or negative")
        self.record("grid_points", triple, self.big.size)
        self.unit_s.append(busy)

    def layer(self) -> dict:
        idx = SpanIndex(self.tracer.spans)
        cold = idx.named("laws.", "bench.cold")
        scalar = idx.named("laws.marginal_pdf", "quadrature.quadrature_integrate")
        integrals = idx.named("quadrature.quadrature_integrate")
        out = {
            "laws.cold_call_ms_p50": median_of(idx, cold, 1e3),
            "laws.cold_s_total": sum(idx.duration(i) for i in cold),
            "laws.warm_call_ms_p50": median_of(idx, idx.named("laws.", "bench.warm"), 1e3),
            "laws.scalar_call_us": median_of(idx, scalar, 1e6),
            "quadrature.evals_per_integral": len(scalar) / len(integrals),
            "quadrature.self_s": sum(idx.self_time(i) for i in integrals),
        }
        points = self.big.size * len(BIG_TRIPLES[self.smoke])
        for key, fn in LAW_FUNCTIONS:
            busy = sum(idx.duration(i) for i in idx.named(f"laws.{fn}", "bench.grid"))
            out[f"laws.{key}_ns_per_point"] = busy / points * 1e9
        return out


# ---- pairs: the single-pair public API -----------------------------------------

PAIR_COUNT = 500
PAIR_UNIT = 100
PAIR_CALLS = {
    "gsvd_spectrum": "engine.spectrum_us",
    "gsvd_spectrum_direct": "engine.direct_us",
    "gsvd_factorize": "engine.factorize_us",
    "q_power_trace": "engine.qpower_us",
}


def pair_dims(seed: int, count: int) -> list[tuple[int, int, int]]:
    """Random (m, q, n) with 1 <= m <= q <= 8 and 1 <= n <= 8."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m = int(rng.integers(1, 9))
        out.append((m, int(rng.integers(m, 9)), int(rng.integers(1, 9))))
    return out


def _factor_problem(f, a, c, qpower) -> str | None:
    """The criterion-9 residual bounds and the power against trace(Q Q^H)."""
    m, n = a.shape
    q = c.shape[0]
    k = f.structure.k
    scale = 1.0 + np.linalg.norm(a) + np.linalg.norm(c)
    pad_a = np.hstack([f.sigma_a, np.zeros((m, n - k))])
    pad_c = np.hstack([f.sigma_c, np.zeros((q, n - k))])
    recon = max(np.linalg.norm(f.u @ a @ f.qmat - pad_a),
                np.linalg.norm(f.v @ c @ f.qmat - pad_c)) / scale
    unitary = max(np.linalg.norm(f.u @ f.u.conj().T - np.eye(m)),
                  np.linalg.norm(f.v @ f.v.conj().T - np.eye(q)))
    cs = np.linalg.norm(f.sigma_a.T @ f.sigma_a + f.sigma_c.T @ f.sigma_c - np.eye(k))
    if not (recon < 1e-8 and unitary < 1e-10 and cs < 1e-10):
        return f"residuals recon {recon:.2e}, unitary {unitary:.2e}, cs {cs:.2e}"
    if qpower is not None:
        direct = float(np.trace(f.qmat @ f.qmat.conj().T).real)
        if abs(direct - qpower) / direct > 1e-6:
            return f"q_power_trace {qpower!r} != trace {direct!r}"
    return None


class PairsPass(Pass):
    def units(self):
        dims = list(enumerate(pair_dims(self.seed, PAIR_COUNT)))
        return [lambda chunk=dims[i:i + PAIR_UNIT]: self._pairs(chunk)
                for i in range(0, len(dims), PAIR_UNIT)]

    def _pairs(self, chunk) -> None:
        busy = 0.0
        for i, (m, q, n) in chunk:
            gen = g.RngStream(self.seed, i).generator()
            st = g.compute_structure(g.ProblemDims(m, q, n))
            calls = []

            def timed(name, fn, *args):
                self.attempted += 1
                t0 = clock()
                out = fn(*args)
                calls.append((name, clock() - t0))
                return out

            qpower = spectrum = None
            try:
                with self.tracer.span("bench.pair"):
                    a = timed("a", g.sample_ginibre, m, n, gen)
                    c = timed("c", g.sample_ginibre, q, n, gen)
                    haar = timed("haar", g.sample_haar_unitary, m + q, gen)
                    if st.s >= 1:
                        spectrum = timed("spectrum", g.gsvd_spectrum, a, c)
                    if q >= n:
                        timed("direct", g.gsvd_spectrum_direct, a, c)
                    factors = timed("factorize", g.gsvd_factorize, a, c)
                    if m + q != n:
                        qpower = timed("qpower", g.q_power_trace, a, c)
            except Exception as exc:  # counted as a failed operation
                self.fail(f"pair {(m, q, n)}", repr(exc))
                continue
            finally:
                for name, took in calls:
                    busy += took
                    self.record("call_s", f"{i}.{name}", took)
            problem = _factor_problem(factors, a, c, qpower)
            if problem is None and haar.shape != (m + q, m + q):
                problem = f"haar shape {haar.shape}"
            if problem is None and spectrum is not None and len(spectrum) != st.s:
                problem = f"{len(spectrum)} values, expected s = {st.s}"
            if problem:
                self.fail(f"pair {(m, q, n)}", problem)
        self.unit_s.append(busy)

    def layer(self) -> dict:
        idx = SpanIndex(self.tracer.spans)
        out = {
            "ensembles.ginibre_us": median_of(idx, idx.named("ensembles.sample_ginibre", "bench.pair"), 1e6),
            "ensembles.haar_us": median_of(idx, idx.named("ensembles.sample_haar_unitary", "bench.pair"), 1e6),
            "engine.errors": sum(1 for i in idx.named("engine.", "bench.pair") if idx.info(i, "error")),
        }
        for fn, name in PAIR_CALLS.items():
            out[name] = median_of(idx, idx.named(f"engine.{fn}", "bench.pair"), 1e6)
        return out


# ---- cli: process start, imports and output ------------------------------------

IMPORT_MODULES = ("numpy", "scipy.linalg", "scipy.special", "scipy.integrate", "gsvdist")
SAMPLE_COUNT = 4_000


def cli_commands(seed: int) -> list[tuple[str, list[str], str | None]]:
    """(name, argv, output file or None) in the order they run."""
    sample = ["sample", "--sampler", "gsvd", "--m", "2", "--q", "3", "--n", "2",
              "--samples", str(SAMPLE_COUNT), "--seed", str(seed)]
    csv_path = os.path.join(OUT_DIR, "sample.csv")
    json_path = os.path.join(OUT_DIR, "sample.json")
    return [
        ("dims", ["dims", "--m", "2", "--q", "3", "--n", "4"], None),
        ("pdf", ["pdf", "--mp", "2", "--p", "2", "--np", "2"], None),
        ("cdf", ["cdf", "--mp", "3", "--p", "1", "--np", "4", "--format", "json"], None),
        ("sample_csv", sample + ["--out", csv_path], csv_path),
        ("sample_json", sample + ["--format", "json", "--out", json_path], json_path),
        ("verify_normalization", ["verify", "normalization", "--mp", "3", "--p", "2", "--np", "4"], None),
        ("verify_marginal", ["verify", "marginal", "--m", "2", "--q", "3", "--n", "2",
                             "--samples", "3000", "--seed", str(seed)], None),
    ]


def _cli_problem(name: str, rc: int, stdout: str, path: str | None) -> tuple[str | None, bool]:
    """(problem or None, verdict failed) for one finished command."""
    if name.startswith("verify"):
        if rc not in (0, 1):
            return f"exit code {rc}", False
        if json.loads(stdout)["data"]["passed"] != (rc == 0):
            return "exit code disagrees with the verdict", False
        return None, rc == 1
    if rc != 0:
        return f"exit code {rc}", False
    if name == "pdf":
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["w", "pdf"] or len(rows) != 201:
            return f"pdf table has {len(rows)} rows", False
    elif name == "sample_csv":
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        fields = dict(kv.split("=") for kv in lines[0][2:].split())
        if len(lines) != 2 + int(fields["count"]) * int(fields["arity"]):
            return f"csv dump has {len(lines)} lines", False
    elif name == "sample_json":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)["data"]
        if len(data["values"]) != data["count"]:
            return "json dump count mismatch", False
    else:
        json.loads(stdout)
    return None, False


def _run(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = clock()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
    return clock() - t0, proc


class CliPass(Pass):
    """Sequential ``python -m gsvdist.cli`` processes; traced passes run each
    command in-process under the tracer instead (``cliprobe.py``)."""

    def units(self):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.probes = {}
        return [lambda cmd=cmd: self._command(*cmd) for cmd in cli_commands(self.seed)]

    def _command(self, name: str, argv: list[str], path: str | None) -> None:
        self.attempted += 1
        if self.tracer.traced:
            took, proc = _run([sys.executable, os.path.join(HERE, "cliprobe.py"), *argv])
        else:
            took, proc = _run([sys.executable, "-m", "gsvdist.cli", *argv])
        self.unit_s.append(took)
        self.record("command_s", name, took)
        rc, stdout = proc.returncode, proc.stdout
        try:
            if self.tracer.traced:
                probe = json.loads(proc.stdout)
                rc, stdout = probe["rc"], probe["stdout"]
                if path:
                    probe["bytes"] = os.path.getsize(path)
                self.probes[name] = probe
                offset = len(self.tracer.spans)
                self.tracer.spans.extend([n, s, e, p + offset if p >= 0 else -1, info]
                                         for n, s, e, p, info in probe["spans"])
            problem, verdict_failed = _cli_problem(name, rc, stdout, path)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problem, verdict_failed = repr(exc), False
        if problem:
            self.fail(name, f"{problem}; stderr: {proc.stderr[-300:]}")
        self.verdicts_failed += verdict_failed
        if path and os.path.exists(path):
            os.remove(path)

    def layer(self) -> dict:
        out = _import_ms()
        out["cli.interp_s"] = statistics.median(_run([sys.executable, "-c", "pass"])[0] for _ in range(5))
        for name, probe in self.probes.items():
            out[f"cli.main_s.{name}"] = probe["main_s"]
        for fmt in ("csv", "json"):
            probe = self.probes[f"sample_{fmt}"]
            idx = SpanIndex(probe["spans"])
            sampling = sum(idx.duration(i) for i in idx.named("montecarlo.sample_w_gsvd"))
            # formatting and writing the dump: main() outside the sampler
            out[f"cli.write_mb_per_s.{fmt}"] = probe["bytes"] / 1e6 / (probe["main_s"] - sampling)
        return out


def _import_ms() -> dict:
    """Cumulative import time of the heavy modules from ``-X importtime``."""
    runs = []
    for _ in range(3):
        _, proc = _run([sys.executable, "-X", "importtime", "-c", "import gsvdist"])
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORT_MODULES:
                found[parts[2].strip()] = int(parts[1]) / 1e3
        runs.append(found)
    return {f"cli.import_ms.{mod}": statistics.median(r.get(mod, float("nan")) for r in runs)
            for mod in IMPORT_MODULES}


FAMILIES = {"verify": VerifyPass, "laws": LawsPass, "pairs": PairsPass, "cli": CliPass}

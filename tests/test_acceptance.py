"""Acceptance suite: one test per release criterion, with pinned tolerances.

Every statistical criterion runs on its committed seed; re-seeding is
expected to pass at least 95% of the time but the criterion is the
committed run.  Each test prints a single PASS/FAIL line (visible with
``pytest -s`` or in the captured output summary).
"""

import json
import math

import numpy as np
import pytest

from gsvdist import (
    Experiment,
    ProblemDims,
    ReducedDims,
    RngStream,
    compute_structure,
    gsvd_factorize,
    gsvd_spectrum,
    law_params,
    log_norm_constant,
    marginal_pdf,
    marginal_pdf_reciprocal,
    q_power_trace,
    quadrature_integrate,
    reduced_dims,
    run_experiment,
    sample_ginibre,
    sample_w_gsvd,
)
from gsvdist.cli import main
from gsvdist.errors import RegimeError


def _report(name: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"{tag} {name}" + (f": {detail}" if detail else ""))
    assert passed, f"{name} failed ({detail})"


def _assert_no_discards(checks) -> None:
    # at a committed seed no draw fails the rank test, the classification or
    # a Cholesky factor; ``checks`` holds (name, check) pairs
    discarded = {name: check["discarded"] for name, check in checks}
    assert not any(discarded.values()), f"draws discarded: {discarded}"


def test_criterion_01_normalization_sweep():
    # quadrature of the marginal over (0, inf) equals one for every
    # parameter triple with 1 <= p, m' <= 4 and m' <= n' <= 6
    worst = 0.0
    count = 0
    for m_prime in range(1, 5):
        for p in range(1, 5):
            for n_prime in range(m_prime, 7):
                params = law_params(m_prime, p, n_prime)
                integral = quadrature_integrate(
                    lambda w: marginal_pdf(params, w), 1e-8
                )
                worst = max(worst, abs(integral - 1.0))
                count += 1
    _report(
        "criterion 1 (normalization sweep)",
        worst <= 1e-6,
        f"{count} triples, max |integral - 1| = {worst:.3e}",
    )


def test_criterion_02_closed_form_anchors():
    anchors = {
        (1, 1, 1): 1.0,
        (2, 1, 2): 2.0,
        (2, 2, 2): 6.0,
    }
    ok = True
    details = []
    for triple, target in anchors.items():
        value = math.exp(log_norm_constant(*triple))
        ok &= abs(value - target) <= 1e-10
        details.append(f"M{triple}={value:.12g}")
    # density anchor against the enumerated closed form 2(1-w+w^2)/(1+w)^4
    pdf_value = marginal_pdf(law_params(2, 2, 2), 1.0)
    ok &= abs(pdf_value - 0.125) <= 1e-12
    details.append(f"pdf(1)={pdf_value:.15g}")
    _report("criterion 2 (closed-form anchors)", ok, ", ".join(details))


def test_criterion_03_reciprocal_identity():
    gen = np.random.default_rng(414213)
    grid = np.geomspace(1e-3, 1e3, 100)
    worst = 0.0
    for _ in range(20):
        m_prime = int(gen.integers(1, 5))
        p = int(gen.integers(1, 5))
        n_prime = int(gen.integers(m_prime, 7))
        params = law_params(m_prime, p, n_prime)
        direct = marginal_pdf(params, grid)
        mirrored = marginal_pdf_reciprocal(params, grid)
        rel = np.abs(direct - mirrored) / np.maximum(direct, 1e-300)
        worst = max(worst, float(np.max(rel)))
    _report(
        "criterion 3 (reciprocal identity)",
        worst <= 1e-9,
        f"max relative deviation = {worst:.3e}",
    )


def test_criterion_04_equivalence_tall():
    report = run_experiment(
        Experiment.EQUIVALENCE, dims=ProblemDims(4, 5, 3), samples=20_000, seed=0
    )
    _assert_no_discards(report.checks)
    check = report.checks[0][1]
    _report(
        "criterion 4 (spectrum equivalence, tall regime)",
        report.passed,
        f"D = {check['statistic']:.5f} < {check['critical_value']:.5f}",
    )


def test_criterion_05_equivalence_intermediate():
    report = run_experiment(
        Experiment.EQUIVALENCE, dims=ProblemDims(3, 4, 5), samples=20_000, seed=0
    )
    _assert_no_discards(report.checks)
    check = report.checks[0][1]
    _report(
        "criterion 5 (spectrum equivalence, intermediate regime)",
        report.passed,
        f"D = {check['statistic']:.5f} < {check['critical_value']:.5f}",
    )


def test_criterion_06_haar_chain():
    report = run_experiment(
        Experiment.HAAR_CHAIN, dims=ProblemDims(2, 3, 4), samples=20_000, seed=0
    )
    assert [name for name, _ in report.checks] == [
        "haar_truncation_vs_gsvd",
        "haar_block_equivalence",
    ]
    _assert_no_discards(report.checks)
    detail = ", ".join(
        f"{name}: D = {check['statistic']:.5f}" for name, check in report.checks
    )
    _report("criterion 6 (haar truncation chain)", report.passed, detail)


def test_criterion_07_marginal_law_end_to_end():
    dims = ProblemDims(2, 3, 2)
    # the ratio-ensemble check tests sample_w_fmatrix(rd, 20_000,
    # RngStream(0, 1)), a law of small order, against the closed form
    assert reduced_dims(dims).l <= 3
    report = run_experiment(Experiment.MARGINAL, dims=dims, samples=20_000, seed=0)
    _assert_no_discards(report.checks)
    check = dict(report.checks)["gsvd_vs_marginal_cdf"]
    _report(
        "criterion 7 (closed-form marginal, end to end)",
        report.passed,
        f"D = {check['statistic']:.5f} < {check['critical_value']:.5f}",
    )


def test_criterion_08_power_mean():
    ok = True
    details = []
    for dims, target in [((2, 2, 8), 1.0), ((3, 3, 2), 0.5)]:
        report = run_experiment(
            Experiment.Q_POWER_MEAN,
            dims=ProblemDims(*dims),
            samples=100_000,
            seed=0,
        )
        _assert_no_discards(report.checks)
        check = report.checks[0][1]
        ok &= report.passed and check["target"] == target
        details.append(f"{dims}: z = {check['z_score']:+.2f}")
    _report("criterion 8 (mean power of the right factor)", ok, ", ".join(details))


def test_criterion_09_factorization_invariants():
    gen = RngStream(90210).generator()
    draws = 0
    worst = {"recon": 0.0, "unitary": 0.0, "cs": 0.0, "trace": 0.0}
    while draws < 200:
        m = int(gen.integers(1, 9))
        q = int(gen.integers(m, 9))
        n = int(gen.integers(1, 9))
        dims = ProblemDims(m, q, n)
        a = sample_ginibre(m, n, gen)
        c = sample_ginibre(q, n, gen)
        f = gsvd_factorize(a, c)
        k = f.structure.k
        scale = 1.0 + np.linalg.norm(a) + np.linalg.norm(c)
        pad_a = np.hstack([f.sigma_a, np.zeros((m, n - k))])
        pad_c = np.hstack([f.sigma_c, np.zeros((q, n - k))])
        worst["recon"] = max(
            worst["recon"],
            np.linalg.norm(f.u @ a @ f.qmat - pad_a) / scale,
            np.linalg.norm(f.v @ c @ f.qmat - pad_c) / scale,
        )
        worst["unitary"] = max(
            worst["unitary"],
            np.linalg.norm(f.u @ f.u.conj().T - np.eye(m)),
            np.linalg.norm(f.v @ f.v.conj().T - np.eye(q)),
        )
        worst["cs"] = max(
            worst["cs"],
            np.linalg.norm(f.sigma_a.T @ f.sigma_a + f.sigma_c.T @ f.sigma_c - np.eye(k)),
        )
        if m + q != n:
            direct = float(np.trace(f.qmat @ f.qmat.conj().T).real)
            worst["trace"] = max(
                worst["trace"], abs(direct - q_power_trace(a, c)) / direct
            )
        draws += 1
    ok = (
        worst["recon"] < 1e-8
        and worst["unitary"] < 1e-10
        and worst["cs"] < 1e-10
        and worst["trace"] < 1e-6
    )
    _report(
        "criterion 9 (factorization invariants, 200 draws)",
        ok,
        ", ".join(f"{k} = {v:.2e}" for k, v in worst.items()),
    )


def test_criterion_10_deterministic_regime(capsys):
    dims = ProblemDims(2, 3, 6)
    ok = compute_structure(dims).s == 0 and reduced_dims(dims) is None
    refused = False
    try:
        sample_w_gsvd(dims, 5, RngStream(0))
    except RegimeError:
        refused = True
    gen = RngStream(31).generator()
    factors = gsvd_factorize(
        sample_ginibre(2, 6, gen), sample_ginibre(3, 6, gen)
    )
    ok &= factors.structure.s == 0 and factors.sigma_a.shape == (2, 5)
    exit_code = main(["verify", "equivalence", "--m", "2", "--q", "3", "--n", "6"])
    capsys.readouterr()
    ok &= refused and exit_code == 2
    _report(
        "criterion 10 (deterministic regime handling)",
        ok,
        f"sampler refused = {refused}, verify exit = {exit_code}",
    )


def test_criterion_11_report_determinism(tmp_path, capsys):
    runs = [
        ["verify", "equivalence", "--m", "2", "--q", "3", "--n", "2",
         "--samples", "3000", "--seed", "11", "--workers", "2"],
        ["verify", "marginal", "--m", "2", "--q", "3", "--n", "4",
         "--samples", "3000", "--seed", "11", "--workers", "1"],
        ["verify", "normalization", "--mp", "2", "--p", "2", "--np", "3"],
        ["verify", "qpower", "--m", "2", "--q", "3", "--n", "9",
         "--samples", "20000", "--seed", "11"],
    ]
    ok = True
    for i, argv in enumerate(runs):
        outputs = []
        for run_idx in range(2):
            path = tmp_path / f"run{i}_{run_idx}.json"
            code = main(argv + ["--out", str(path)])
            assert code == 0
            payload = json.loads(path.read_text())
            # the quadrature checks of normalization draw nothing
            _assert_no_discards(
                (check["name"], check) for check in payload["data"]["checks"]
                if "discarded" in check
            )
            payload["meta"].pop("generated_at")
            payload["meta"].pop("elapsed_seconds", None)
            outputs.append(json.dumps(payload, sort_keys=True))
        ok &= outputs[0] == outputs[1]
    capsys.readouterr()
    _report("criterion 11 (report determinism)", ok, f"{len(runs)} experiments x 2 runs")

"""CLI surface: formats, exit codes, determinism."""

import csv
import io
import json

import numpy as np
import pytest

from gsvdist.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _strip_meta(payload: dict) -> dict:
    meta = dict(payload["meta"])
    meta.pop("generated_at", None)
    meta.pop("elapsed_seconds", None)
    return {"meta": meta, "data": payload["data"]}


# --------------------------------------------------------------------- dims


def test_dims_intermediate(capsys):
    code, out = _run(capsys, ["dims", "--m", "2", "--q", "3", "--n", "4"])
    assert code == 0
    data = json.loads(out)["data"]
    assert (data["k"], data["r"], data["s"]) == (4, 1, 1)
    assert data["regime"] == "intermediate"
    assert (data["m_prime"], data["p"], data["n_prime"]) == (3, 1, 4)
    assert data["expected_q_power"] == pytest.approx(4.0)


def test_dims_deterministic(capsys):
    code, out = _run(capsys, ["dims", "--m", "2", "--q", "3", "--n", "6"])
    assert code == 0
    data = json.loads(out)["data"]
    assert data["s"] == 0 and data["regime"] == "deterministic"
    assert data["m_prime"] is None


def test_dims_square_stack_power_undefined(capsys):
    code, out = _run(capsys, ["dims", "--m", "2", "--q", "2", "--n", "4"])
    assert code == 0
    assert json.loads(out)["data"]["expected_q_power"] is None


def test_dims_rejects_swapped_pair(capsys):
    code, _ = _run(capsys, ["dims", "--m", "3", "--q", "2", "--n", "4"])
    assert code == 2


# ------------------------------------------------------------------ pdf/cdf


def test_pdf_single_point(capsys):
    code, out = _run(
        capsys, ["pdf", "--mp", "2", "--p", "2", "--np", "2", "--grid", "1", "1", "1"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert float(rows[0]["pdf"]) == pytest.approx(0.125, abs=1e-12)


def test_pdf_csv_json_identical_values(capsys):
    args = ["pdf", "--mp", "2", "--p", "1", "--np", "3", "--grid", "0.1", "10", "7"]
    _, csv_out = _run(capsys, args + ["--format", "csv"])
    _, json_out = _run(capsys, args + ["--format", "json"])
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    payload = json.loads(json_out)["data"]
    assert [float(r["w"]) for r in rows] == payload["w"]
    assert [float(r["pdf"]) for r in rows] == payload["pdf"]
    assert payload["params"]["l"] == 1


def test_cdf_monotone_grid(capsys):
    code, out = _run(
        capsys,
        ["cdf", "--mp", "2", "--p", "2", "--np", "3", "--grid", "0.01", "100", "50"],
    )
    assert code == 0
    values = [float(r["cdf"]) for r in csv.DictReader(io.StringIO(out))]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_pdf_order_eight(capsys):
    # l = 8: the marginal law has no order cap
    code, out = _run(capsys, ["pdf", "--mp", "8", "--p", "8", "--np", "8"])
    assert code == 0
    values = [float(r["pdf"]) for r in csv.DictReader(io.StringIO(out))]
    assert len(values) == 200 and all(v > 0.0 for v in values)


def test_grid_validation(capsys):
    code, _ = _run(
        capsys, ["pdf", "--mp", "2", "--p", "2", "--np", "2", "--grid", "2", "1", "5"]
    )
    assert code == 2


# ------------------------------------------------------------------- sample


def test_sample_gsvd_rows_and_determinism(capsys):
    args = [
        "sample", "--sampler", "gsvd", "--m", "2", "--q", "3", "--n", "2",
        "--samples", "5", "--seed", "7",
    ]
    code, out1 = _run(capsys, args)
    assert code == 0
    lines = out1.strip().splitlines()
    assert lines[0].startswith("#") and "sampler=gsvd" in lines[0]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    assert len(rows) == 10  # 5 draws x arity 2
    _, out2 = _run(capsys, args)
    assert out1 == out2


def test_sample_haar_wrong_regime(capsys):
    code, _ = _run(
        capsys,
        ["sample", "--sampler", "haar", "--m", "2", "--q", "3", "--n", "2",
         "--samples", "5"],
    )
    assert code == 2


def test_sample_fmatrix_uses_reduced_flags(capsys):
    code, out = _run(
        capsys,
        ["sample", "--sampler", "fmatrix", "--mp", "2", "--p", "1", "--np", "3",
         "--samples", "4", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)["data"]
    assert data["arity"] == 1 and len(data["values"]) == 4


# ------------------------------------------------------------------- verify


def test_verify_equivalence_passes(capsys):
    code, out = _run(
        capsys,
        ["verify", "equivalence", "--m", "2", "--q", "3", "--n", "2",
         "--samples", "3000", "--seed", "1"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["data"]["passed"] is True


def test_verify_regime_mismatch_exit_code(capsys):
    code, _ = _run(
        capsys, ["verify", "qpower", "--m", "2", "--q", "2", "--n", "4"]
    )
    assert code == 2
    code, _ = _run(
        capsys, ["verify", "equivalence", "--m", "2", "--q", "3", "--n", "6"]
    )
    assert code == 2


@pytest.mark.parametrize("experiment, dims", [("marginal", "232"), ("qpower", "228")])
def test_verify_bad_alpha_exit_code(capsys, experiment, dims):
    m, q, n = dims
    code = main(["verify", experiment, "--m", m, "--q", q, "--n", n, "--alpha", "1.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "alpha must be in (0, 1), got 1.5" in captured.err


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["verify", "marginal", "--mp", "2", "--p", "2", "--np", "3"], "--m/--q/--n"),
        (["verify", "normalization", "--m", "2", "--q", "3", "--n", "2"], "--mp/--p/--np"),
        (["sample", "--sampler", "fmatrix", "--p", "2", "--np", "3"], "--mp/--p/--np"),
        (["sample", "--sampler", "gsvd", "--m", "2"], "--m/--q/--n"),
    ],
)
def test_missing_dimension_flags_exit_code(capsys, argv, flags):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert flags in err


def test_verify_statistical_fail_exit_code(capsys, monkeypatch):
    import gsvdist.cli as cli_mod

    real = cli_mod.run_experiment

    def failing(*args, **kwargs):
        report = real(*args, **kwargs)
        return type(report)(
            **{**report.__dict__, "passed": False}
        )

    monkeypatch.setattr(cli_mod, "run_experiment", failing)
    code, _ = _run(
        capsys,
        ["verify", "normalization", "--mp", "1", "--p", "1", "--np", "1"],
    )
    assert code == 1


def test_verify_normalization(capsys):
    code, out = _run(
        capsys, ["verify", "normalization", "--mp", "3", "--p", "2", "--np", "4"]
    )
    assert code == 0
    checks = json.loads(out)["data"]["checks"]
    assert checks[0]["value"] == pytest.approx(1.0, abs=1e-6)


def test_verify_normalization_order_eight(capsys):
    code, out = _run(
        capsys, ["verify", "normalization", "--mp", "8", "--p", "8", "--np", "9"]
    )
    assert code == 0
    checks = json.loads(out)["data"]["checks"]
    assert checks[0]["value"] == pytest.approx(1.0, abs=1e-6)


def test_verify_deterministic_output(capsys):
    args = [
        "verify", "marginal", "--m", "2", "--q", "3", "--n", "2",
        "--samples", "2000", "--seed", "3", "--workers", "2",
    ]
    _, out1 = _run(capsys, args)
    _, out2 = _run(capsys, args)
    a = _strip_meta(json.loads(out1))
    b = _strip_meta(json.loads(out2))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_verify_csv_format(capsys):
    code, out = _run(
        capsys,
        ["verify", "equivalence", "--m", "2", "--q", "3", "--n", "2",
         "--samples", "2000", "--seed", "1", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[-1]["check"] == "overall"
    assert rows[-1]["passed"] == "true"


def test_out_file_and_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GSVDIST_OUT_DIR", str(tmp_path))
    code, out = _run(
        capsys, ["dims", "--m", "2", "--q", "3", "--n", "4", "--out", "d.json"]
    )
    assert code == 0 and out == ""
    payload = json.loads((tmp_path / "d.json").read_text())
    assert payload["data"]["k"] == 4


def test_float_formatting_round_trips(capsys):
    _, out = _run(
        capsys,
        ["pdf", "--mp", "3", "--p", "2", "--np", "4", "--grid", "0.37", "11.1", "5"],
    )
    from gsvdist import law_params, marginal_pdf

    params = law_params(3, 2, 4)
    for row in csv.DictReader(io.StringIO(out)):
        w = float(row["w"])
        assert float(row["pdf"]) == marginal_pdf(params, w)

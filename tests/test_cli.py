"""CLI surface: formats, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gsvdist.cli import main
from gsvdist.montecarlo import CHUNK


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _both_formats(capsys, argv):
    """(CSV rows as dicts, JSON data) of one command run in both formats."""
    code, csv_out = _run(capsys, argv + ["--format", "csv"])
    assert code == 0
    code, json_out = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    return list(csv.DictReader(io.StringIO(csv_out))), json.loads(json_out)["data"]


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


@pytest.mark.parametrize("dims", ["234", "236", "224"])
def test_dims_csv_json_identical_values(capsys, dims):
    # intermediate, deterministic and square stack (neither has a reduced
    # triple, and the square stack has no power): null is an empty cell,
    # or the power column's reason
    argv = ["dims", *(arg for flag, d in zip(("--m", "--q", "--n"), dims) for arg in (flag, d))]
    rows, data = _both_formats(capsys, argv)
    assert len(rows) == 1 and sorted(rows[0]) == sorted(data)
    for key, cell in rows[0].items():
        value = data[key]
        if value is None:
            assert cell == ("undefined (m+q = n)" if key == "expected_q_power" else ""), key
        elif isinstance(value, float):
            assert float(cell) == value, key
        else:
            assert cell == str(value), key
    assert (data["m_prime"] is None) == (dims != "234")
    assert (data["expected_q_power"] is None) == (dims == "224")


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
    for column in ("pdf", "cdf"):
        args = [column, "--mp", "2", "--p", "1", "--np", "3", "--grid", "0.1", "10", "7"]
        rows, payload = _both_formats(capsys, args)
        assert [float(r["w"]) for r in rows] == payload["w"]
        assert [float(r[column]) for r in rows] == payload[column]
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


def test_grid_validation(capsys, monkeypatch):
    # min > max, a non-finite MIN or MAX, a POINTS that is not finite or
    # not a whole number, and a POINTS above the 10^7 ceiling, which is
    # refused before any grid is allocated
    def no_grid(*args, **kwargs):
        raise AssertionError("allocated a grid before refusing it")

    monkeypatch.setattr(np, "geomspace", no_grid)
    for grid in (("2", "1", "5"), ("1e-3", "inf", "4"), ("nan", "1", "4"),
                 ("1e-3", "1e3", "nan"), ("1e-3", "1e3", "inf"), ("1e-3", "1e3", "2.7"),
                 ("1e-3", "1e3", "1e300"), ("1e-3", "1e3", "10000001")):
        for command in ("pdf", "cdf"):
            code = main([command, "--mp", "2", "--p", "2", "--np", "3", "--grid", *grid])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", (command, grid)
            assert captured.err.startswith("error: grid"), (command, grid)
    # a single-point grid whose min and max differ
    for command in ("pdf", "cdf"):
        code = main([command, "--mp", "2", "--p", "2", "--np", "3", "--grid", "1", "2", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", command
        assert captured.err == "error: a single-point grid needs min == max\n", command


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


def test_sample_json_data_ignores_workers(capsys):
    # three chunks of draws: the data is byte-identical for any worker count,
    # the default (None: no flag, one thread per core) included
    dumps = []
    for workers in (1, 2, 3, 64, None):
        flag = [] if workers is None else ["--workers", str(workers)]
        code, out = _run(
            capsys,
            ["sample", "--sampler", "gsvd", "--m", "2", "--q", "3", "--n", "4",
             "--samples", str(2 * CHUNK + 5), "--seed", "2", *flag, "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["workers"] == (workers or os.cpu_count() or 1)
        assert "workers" not in payload["data"]
        dumps.append(json.dumps(payload["data"], sort_keys=True))
    assert len(set(dumps)) == 1


@pytest.mark.parametrize(
    "sampler, dims",
    [("gsvd", ["--m", "2", "--q", "3", "--n", "2"]),
     ("fmatrix", ["--mp", "2", "--p", "2", "--np", "3"]),
     ("haar", ["--m", "2", "--q", "3", "--n", "4"]),
     ("qpower", ["--m", "2", "--q", "2", "--n", "8"])],
)
def test_sample_csv_json_identical_values(capsys, sampler, dims):
    argv = ["sample", "--sampler", sampler, *dims, "--samples", "6", "--seed", "4"]
    code, csv_out = _run(capsys, argv)
    assert code == 0
    comment, *lines = csv_out.splitlines()
    code, json_out = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    data = json.loads(json_out)["data"]
    fields = dict(kv.split("=") for kv in comment.removeprefix("# ").split())
    assert fields == {
        "sampler": data["sampler"],
        "dims": "x".join(str(d) for d in data["dims"]),
        "seed": str(data["seed"]),
        "count": str(data["count"]),
        "arity": str(data["arity"]),
    }
    rows = list(csv.DictReader(lines))
    assert len(rows) == data["count"] * data["arity"]
    for row in rows:
        assert float(row["value"]) == data["values"][int(row["draw"])][int(row["index"])]


def test_sample_negative_seed_exits_2(capsys):
    code = main(["sample", "--sampler", "gsvd", "--m", "2", "--q", "3", "--n", "2", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        "error: seed and stream index must be >= 0, got RngStream(master_seed=-1, stream_index=0)"
    ]


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
    # each regime refusal comes first: haar at (2, 3, 2) is outside its
    # regime before 2 samples are too few
    for argv, message in (
        (["qpower", "--m", "2", "--q", "2", "--n", "4"],
         "the right-factor power's mean is undefined at m + q = n (= 4)"),
        (["equivalence", "--m", "2", "--q", "3", "--n", "6"],
         "dims (2, 3, 6) are deterministic (s = 0): no random spectrum"),
        (["haar", "--m", "2", "--q", "3", "--n", "2", "--samples", "2"],
         "haar truncation sampling needs q < n < q + m, got (2, 3, 2) (tall_c)"),
    ):
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.splitlines() == [f"error: {message}"], argv


@pytest.mark.parametrize(
    "experiment, dims", [("marginal", "232"), ("qpower", "228"), ("normalization", "324")]
)
def test_verify_bad_alpha_exit_code(capsys, experiment, dims):
    flags = ("--mp", "--p", "--np") if experiment == "normalization" else ("--m", "--q", "--n")
    dim_args = [arg for flag, d in zip(flags, dims) for arg in (flag, d)]
    code = main(["verify", experiment, *dim_args, "--alpha", "1.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "alpha must be in (0, 1), got 1.5" in captured.err


def test_verify_workers_below_one_exit_code(capsys, monkeypatch):
    import gsvdist.montecarlo as mc

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(mc, "sample_ginibre", no_draw)
    code = main(["verify", "marginal", "--m", "2", "--q", "3", "--n", "2", "--workers", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "workers must be >= 1, got 0" in captured.err


@pytest.mark.parametrize(
    "flags, message",
    [(["--workers", "0", "--samples", "-5"], "samples = -5 is too few"),
     (["--workers", "0"], "workers must be >= 1, got 0")],
)
def test_verify_normalization_refuses_samples_and_workers(capsys, flags, message):
    code = main(["verify", "normalization", "--mp", "3", "--p", "2", "--np", "4", *flags])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


def test_closed_stdout_ends_without_traceback():
    # the reader closes its end before the CLI writes, as `| head` does
    # once it has its lines: exit 141 (128 + SIGPIPE) and no traceback
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gsvdist.cli", "verify", "normalization",
         "--mp", "3", "--p", "2", "--np", "4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_a_law_value_beyond_float_range_exits_2(capsys):
    # at (300, 300, 3300) the density's recurrence leaves the float range
    # away from the bulk: each command refuses instead of printing nan, and
    # its one error line is all it writes (a numpy warning would raise here)
    triple = ["--mp", "300", "--p", "300", "--np", "3300"]
    for argv in (
        ["pdf", *triple, "--grid", "0.1", "3", "3"],
        ["cdf", *triple, "--grid", "0.1", "3", "3"],
        ["verify", "normalization", *triple],
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: a law value is not finite"), captured.err


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


def test_verify_normalization_records_no_unread_input(capsys):
    # the quadrature reads no seed, sample count or level: flags that set
    # them change nothing in data, which records each as null, and no
    # calibration note describes them
    argv = ["verify", "normalization", "--mp", "3", "--p", "2", "--np", "4"]
    datas = []
    for extra in ([], ["--samples", "7", "--seed", "9"]):
        code, out = _run(capsys, [*argv, *extra])
        assert code == 0
        datas.append(json.loads(out)["data"])
    assert datas[0] == datas[1]
    assert [datas[0][key] for key in ("seed", "samples", "alpha_level")] == [None] * 3
    assert datas[0]["notes"] == []


def test_verify_normalization_order_eight(capsys):
    code, out = _run(
        capsys, ["verify", "normalization", "--mp", "8", "--p", "8", "--np", "9"]
    )
    assert code == 0
    checks = json.loads(out)["data"]["checks"]
    assert checks[0]["value"] == pytest.approx(1.0, abs=1e-6)


def test_verify_refuses_samples_that_cannot_reject(capsys):
    # exit 2 with the reason, before any draw: a KS critical value >= 1 or
    # a single draw for the mean test
    for argv in (
        ["verify", "marginal", "--m", "2", "--q", "3", "--n", "2", "--samples", "2"],
        ["verify", "equivalence", "--m", "2", "--q", "3", "--n", "2", "--samples", "5"],
        ["verify", "qpower", "--m", "2", "--q", "2", "--n", "8", "--samples", "1"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert "too few" in captured.err, argv


def test_verify_normalization_csv_names_both_checks(capsys):
    code, out = _run(
        capsys,
        ["verify", "normalization", "--mp", "3", "--p", "2", "--np", "4", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["check"] for r in rows] == ["density_normalization", "cdf_against_density", "overall"]
    assert rows[1]["kind"] == "quadrature" and float(rows[1]["reference"]) == 0.5


@pytest.mark.parametrize(
    "experiment, dims",
    [("normalization", ["--mp", "3", "--p", "2", "--np", "4"]),
     ("marginal", ["--m", "2", "--q", "3", "--n", "2"]),
     ("qpower", ["--m", "2", "--q", "2", "--n", "8"]),
     ("haar", ["--m", "2", "--q", "3", "--n", "4"]),
     ("equivalence", ["--m", "2", "--q", "3", "--n", "2"])],
)
def test_verify_csv_json_identical_values(capsys, experiment, dims):
    # one CSV row per check, then the verdict: statistic (or value, or
    # estimate), reference (critical value or target) and passed
    argv = ["verify", experiment, *dims, "--samples", "600", "--seed", "5"]
    rows, data = _both_formats(capsys, argv)
    checks = data["checks"]
    assert [r["check"] for r in rows] == [c["name"] for c in checks] + ["overall"]
    for row, check in zip(rows, checks):
        statistic = check.get("statistic", check.get("value", check.get("estimate")))
        reference = check.get("critical_value", check.get("target"))
        assert row["kind"] == check["kind"]
        assert float(row["statistic"]) == statistic
        assert float(row["reference"]) == reference
        assert row["passed"] == str(check["passed"]).lower()
    assert rows[-1]["passed"] == str(data["passed"]).lower()


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


@pytest.mark.parametrize(
    "argv",
    [["dims", "--m", "2", "--q", "3", "--n", "4"],
     ["pdf", "--mp", "3", "--p", "2", "--np", "4", "--grid", "0.5", "2", "3"],
     ["cdf", "--mp", "3", "--p", "2", "--np", "4", "--grid", "0.5", "2", "3"],
     ["sample", "--sampler", "gsvd", "--m", "2", "--q", "3", "--n", "2", "--samples", "6"],
     ["verify", "normalization", "--mp", "3", "--p", "2", "--np", "4"]],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_file_holds_the_stdout_text(tmp_path, capsys, argv, fmt):
    # one newline rule for both targets: the file ends in exactly one "\n",
    # a CSV file is stdout's bytes, and a JSON file holds stdout's data
    argv = [*argv, "--format", fmt]
    code, out = _run(capsys, argv)
    assert code == 0
    target = tmp_path / f"out.{fmt}"
    code, nothing = _run(capsys, [*argv, "--out", str(target)])
    assert code == 0 and nothing == ""
    text = target.read_bytes()
    assert text.endswith(b"\n") and not text.endswith(b"\n\n")
    if fmt == "csv":
        assert text == out.encode()
    else:
        assert json.loads(text)["data"] == json.loads(out)["data"]


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    # a failed write exits 2 with one error line, never 1 (statistical fail)
    missing = str(tmp_path / "missing" / "x.json")
    for argv in (
        ["dims", "--m", "2", "--q", "3", "--n", "4"],
        ["verify", "normalization", "--mp", "2", "--p", "2", "--np", "3"],
    ):
        code = main(argv + ["--out", missing])
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.startswith("error: cannot write") and err.count("\n") == 1


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

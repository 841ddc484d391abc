"""Command-line front end.

Subcommands: ``dims`` (structural parameters), ``pdf`` / ``cdf`` (marginal
law tables), ``sample`` (raw sampler dumps), and ``verify`` (named
statistical experiments).  Each command builds its JSON ``data``, its CSV
rows (header first) and its ``meta`` once and hands them to one writer,
the only reader of ``--format`` and ``--out``.  Output is CSV (single
header row) or JSON (a ``meta`` object plus a ``data`` object; the
timestamp and elapsed time in ``meta`` are the only nondeterministic
fields).

Exit codes: 0 success / statistical pass, 1 statistical fail, 2 usage or
regime error, a law value that leaves the float range (at large order), or
an output file that cannot be written, 141 (128 + SIGPIPE, as a shell
reports a command that a closed pipe ends) when the reader of stdout closes
it early, as ``| head`` does.  A refusal after the flags parse, such as a
law value beyond the float range, writes one ``error:`` line to stderr and
nothing to stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, fields
from datetime import datetime, timezone
from itertools import chain

import numpy as np

from . import __version__
from .engine import (
    ProblemDims,
    ReducedDims,
    compute_structure,
    expected_q_power,
    reduced_dims,
)
from .ensembles import RngStream
from .errors import GsvdistError
from .laws import law_params, marginal_cdf, marginal_pdf
from .montecarlo import _SOURCES, Experiment, SamplerId, run_experiment

OUT_DIR_ENV = "GSVDIST_OUT_DIR"
DEFAULT_GRID = (1e-3, 1e3, 200)
_MAX_GRID_POINTS = 10**7  # a larger --grid is refused before any allocation


def _fmt(x) -> str:
    """Round-trippable text for numbers; plain str otherwise."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write(args, meta: dict, data, rows) -> None:
    """Write one command's output: JSON ``{meta, data}`` or the CSV ``rows``.

    ``meta`` holds the command's own fields; the command name, version and
    timestamp join them here.  ``data`` may hold numpy arrays, which JSON
    writes as lists.  ``rows`` is an iterable of CSV rows, header first,
    read only for CSV.  The text ends in one newline in either format, and
    the same bytes go to stdout or to the file that ``--out`` names,
    relative to ``GSVDIST_OUT_DIR`` when that is set; a failed write raises
    ``GsvdistError``.
    """
    if args.format == "json":
        meta = {
            "command": args.command,
            "version": __version__,
            "generated_at": datetime.now(timezone.utc).isoformat(),
            **meta,
        }
        payload = {"meta": meta, "data": data}
        text = json.dumps(payload, sort_keys=True, indent=2, default=np.ndarray.tolist) + "\n"
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([_fmt(x) for x in row] for row in rows)
        text = buf.getvalue()
    target = args.out
    if target is None:
        sys.stdout.write(text)
        return
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(target):
        target = os.path.join(base, target)
    try:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise GsvdistError(f"cannot write {target}: {exc.strerror}") from exc


# each dimension record's flags, in its field order, with their --help text
_DIM_FLAGS = {
    ProblemDims: dict.fromkeys(("m", "q", "n")),
    ReducedDims: {"mp": "rows m'", "p": "numerator columns p", "np": "denominator columns n'"},
}


def _dims(args, record, what: str):
    """The ``record`` (ProblemDims or ReducedDims) that its flags give."""
    values = [getattr(args, flag) for flag in _DIM_FLAGS[record]]
    if None in values:
        raise GsvdistError(f"{what} needs " + "/".join(f"--{flag}" for flag in _DIM_FLAGS[record]))
    return record(*values)


def _grid(args) -> np.ndarray:
    lo, hi, points = args.grid if args.grid else DEFAULT_GRID
    if not (np.isfinite(points) and points == int(points)):
        raise GsvdistError(f"grid POINTS must be a whole number, got {points}")
    points = int(points)
    if points > _MAX_GRID_POINTS:
        raise GsvdistError(f"grid POINTS must be at most {_MAX_GRID_POINTS}, got {points}")
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo <= 0 or hi <= 0:
        raise GsvdistError("grid bounds must be finite and positive")
    if points == 1:
        if lo != hi:
            raise GsvdistError("a single-point grid needs min == max")
        return np.array([lo])
    if points < 2 or lo >= hi:
        raise GsvdistError("grid needs min < max and at least 2 points")
    return np.geomspace(lo, hi, points)


def cmd_dims(args) -> int:
    dims = _dims(args, ProblemDims, "dims")
    st = compute_structure(dims)
    rd = reduced_dims(dims)
    try:
        power = expected_q_power(dims)
    except GsvdistError:
        power = None
    record = {
        **asdict(dims),
        **asdict(st),
        "regime": st.regime.value,
        **(asdict(rd) if rd else dict.fromkeys(f.name for f in fields(ReducedDims))),
        "expected_q_power": power,
    }
    row = ["" if value is None else value for value in record.values()]
    row[-1] = "undefined (m+q = n)" if power is None else power
    _write(args, {}, record, [list(record), row])
    return 0


def _law_table(args, law) -> int:
    params = law_params(args.mp, args.p, args.np)
    grid = _grid(args)
    values = law(params, grid)
    data = {"params": asdict(params), "w": grid, args.command: values}
    _write(args, {}, data, chain([["w", args.command]], zip(grid, values)))
    return 0


def cmd_sample(args) -> int:
    # each sampler is the verification batch source of its name: the same
    # dimension record and the same draws, valued in w (qpower: the power)
    record, source = _SOURCES[args.sampler]
    dims = _dims(args, record, f"sampler {args.sampler}")
    batch = source(dims, args.samples, RngStream(args.seed), args.workers)
    values = batch.values.tolist()
    data = {
        "sampler": batch.sampler_id.value,
        "dims": list(batch.dims),
        "seed": batch.seed,
        "count": batch.count,
        "arity": batch.arity,
        "failures": batch.failures,
        "values": values,
    }
    # the comment is one field with no comma or quote: csv writes it as is
    comment = (
        f"# sampler={args.sampler} dims={'x'.join(str(d) for d in batch.dims)} "
        f"seed={batch.seed} count={batch.count} arity={batch.arity}"
    )
    rows = (
        (draw, index, value)
        for draw, row in enumerate(values)
        for index, value in enumerate(row)
    )
    meta = {"seed": args.seed, "workers": args.workers}
    _write(args, meta, data, chain([[comment], ["draw", "index", "value"]], rows))
    return 0


def cmd_verify(args) -> int:
    experiment = Experiment(args.experiment)
    record = ReducedDims if experiment.takes_reduced else ProblemDims
    triple = _dims(args, record, f"verify {experiment.value}")
    report = run_experiment(
        experiment,
        dims=None if experiment.takes_reduced else triple,
        reduced=triple if experiment.takes_reduced else None,
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
        alpha_level=args.alpha,
    )

    rows = [["check", "kind", "statistic", "reference", "passed"]]
    for name, check in report.checks:
        rows.append(
            [
                name,
                check["kind"],
                check.get("statistic", check.get("value", check.get("estimate"))),
                check.get("critical_value", check.get("target")),
                check["passed"],
            ]
        )
    rows.append(["overall", "verdict", "", "", report.passed])
    meta = {
        "seed": report.seed,
        "workers": report.workers,
        "elapsed_seconds": report.elapsed_seconds,
    }
    _write(args, meta, report.to_dict(), rows)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsvdist",
        description="generalized-SVD spectral laws: structure, densities, "
        "samplers, and statistical verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt_default):
        p.add_argument("--format", choices=["csv", "json"], default=fmt_default)
        p.add_argument("--out", default=None, help="write to a file instead of stdout")

    def add_dims(p, record, required):
        for flag, help_text in _DIM_FLAGS[record].items():
            p.add_argument(f"--{flag}", type=int, required=required, help=help_text)

    def add_run(p):
        add_dims(p, ProblemDims, required=False)
        add_dims(p, ReducedDims, required=False)
        p.add_argument("--samples", type=int, default=20000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                       help="threads (default: the core count); the data does not depend on it")

    p_dims = sub.add_parser("dims", help="structural parameters of a pair")
    add_dims(p_dims, ProblemDims, required=True)
    add_common(p_dims, "json")
    p_dims.set_defaults(func=cmd_dims)

    # the laws are read here, when main() builds the parser, so a wrapper
    # bound to the module name before that sees every call
    for name, law, help_text in (
        ("pdf", marginal_pdf, "tabulate the marginal density"),
        ("cdf", marginal_cdf, "tabulate the marginal distribution function"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_dims(p, ReducedDims, required=True)
        p.add_argument(
            "--grid",
            nargs=3,
            type=float,
            metavar=("MIN", "MAX", "POINTS"),
            help="log-spaced evaluation grid (default 1e-3 1e3 200); outside "
            "the grid the density behaves like w^t1 at 0 and w^(t1-t2) at "
            "infinity",
        )
        add_common(p, "csv")
        p.set_defaults(func=lambda args, law=law: _law_table(args, law))

    p_sample = sub.add_parser("sample", help="dump raw sampler draws")
    p_sample.add_argument(
        "--sampler",
        choices=[s.value for s in SamplerId],
        required=True,
    )
    add_run(p_sample)
    add_common(p_sample, "csv")
    p_sample.set_defaults(func=cmd_sample)

    p_verify = sub.add_parser("verify", help="run a named verification experiment")
    p_verify.add_argument(
        "experiment",
        choices=[e.value for e in Experiment],
    )
    add_run(p_verify)
    p_verify.add_argument("--alpha", type=float, default=0.01)
    add_common(p_verify, "json")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every law value passes laws._evaluate's finite check and every
        # sampler row its mask, so a numpy warning reports no fault they miss
        with np.errstate(all="ignore"):
            code = args.func(args)
        sys.stdout.flush()
        return code
    except GsvdistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the exit flush
        # cannot fail again, and stop without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    raise SystemExit(main())

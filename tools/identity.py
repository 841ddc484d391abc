"""Digests that show a change leaves gsvdist's results as they were.

Run from the repository root on two commits and compare the output:

    PYTHONPATH=src python tools/identity.py [--rows]

It prints four SHA-256 digests, one a line:

* ``reports``: the UTF-8 of ``json.dumps(report.to_dict(), sort_keys=True)``
  for each report of the benchmark's verify plan (``perfbench/families.py``
  ``VERIFY_PLAN``) at seeds 0 and 1, then ``normalization`` at (3, 2, 4).
* ``laws``: for the benchmark's 198 sweep triples and ``EXTRA_TRIPLES``,
  ``asdict(law_params)`` as sorted JSON and ``repr(log_norm_constant)``;
  then, for the pdf, the CDF and the reciprocal pdf, the ``tobytes()`` of
  their values on ``geomspace(1e-3, 1e3, 200)`` and the ``repr`` of the
  value at 1.0; for the CDF also the ``repr`` of its values at ``CDF_EDGES``.
* ``runs``: the ``tobytes()`` of the pdf, the CDF and the reciprocal pdf on
  ``geomspace(1e-3, 1e3, 200_003)`` at the benchmark's ``BIG_TRIPLES[False]``,
  grids that the evaluators split into many runs, a short last one included;
  then of the CDF on ``geomspace(1e-2, 1e2, 2003)`` at ``RUN_TRIPLES``.
* ``refusals``: one line per call of ``run_experiment`` over every
  experiment, ``REFUSAL_DIMS`` (the triple goes in as ``reduced`` for
  ``normalization`` and as ``dims`` otherwise; ``None`` leaves it out),
  samples 0, 1, 2 and 5, ``alpha_level`` 0.01 and 1.5 and seeds 0 and -1:
  the exception's type and message, or ``passed`` when the call returns.

Each digest runs over its pieces in that order.  ``--rows`` also prints the
refusal lines, so that a diff of two outputs names the rows that changed.

``--against REV`` compares with a git revision in one run:

    PYTHONPATH=src python tools/identity.py --against HEAD~1 [--rows]

It extracts ``src/`` at REV (``git archive``, read through ``tarfile``) into
a temporary directory and runs this script there, with that package on
``PYTHONPATH`` and bytecode writes off.  It then prints each digest's
name, its value at REV, its value here, and ``same`` or ``differs``.  With
``--rows`` it also prints a unified diff of the refusal rows, REV first.
Nothing is written under the repository or ``.git``.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import asdict
from itertools import product

import numpy as np

import gsvdist as g
from gsvdist.errors import GsvdistError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the verify plan and the law sweep are the benchmark's, stated once there
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from families import BIG_TRIPLES, VERIFY_PLAN, law_triples  # noqa: E402

EXTRA_TRIPLES = ((40, 40, 60), (150, 150, 150), (400, 3, 900), (10, 10, 1500), (1, 1, 10**6),
                 (50, 2, 120))
CDF_EDGES = (0.0, -0.0, np.inf, 1e-310)
RUN_TRIPLES = ((40, 40, 60), (150, 150, 150))
REFUSAL_DIMS = ((2, 3, 6), (2, 3, 4), (2, 3, 3), (2, 2, 4), (1, 1, 5), (2, 3, 2), None)


def reports_digest() -> str:
    digest = hashlib.sha256()
    runs = [
        (experiment, {"dims": g.ProblemDims(*dims), "samples": samples, "seed": seed,
                      "workers": workers})
        for seed in (0, 1)
        for experiment, dims, samples, workers in VERIFY_PLAN
    ] + [("normalization", {"reduced": g.ReducedDims(3, 2, 4)})]
    for experiment, kwargs in runs:
        report = g.run_experiment(experiment, **kwargs)
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def laws_digest() -> str:
    digest = hashlib.sha256()
    grid = np.geomspace(1e-3, 1e3, 200)
    for triple in [*law_triples(False), *EXTRA_TRIPLES]:
        params = g.law_params(*triple)
        digest.update(json.dumps(asdict(params), sort_keys=True).encode())
        digest.update(repr(g.log_norm_constant(*triple)).encode())
        for law in (g.marginal_pdf, g.marginal_cdf, g.marginal_pdf_reciprocal):
            digest.update(law(params, grid).tobytes())
            digest.update(repr(law(params, 1.0)).encode())
            if law is g.marginal_cdf:
                for w in CDF_EDGES:
                    digest.update(repr(law(params, w)).encode())
    return digest.hexdigest()


def runs_digest() -> str:
    digest = hashlib.sha256()
    grid = np.geomspace(1e-3, 1e3, 200_003)
    for triple in BIG_TRIPLES[False]:
        params = g.law_params(*triple)
        for law in (g.marginal_pdf, g.marginal_cdf, g.marginal_pdf_reciprocal):
            digest.update(law(params, grid).tobytes())
    grid = np.geomspace(1e-2, 1e2, 2003)
    for triple in RUN_TRIPLES:
        digest.update(g.marginal_cdf(g.law_params(*triple), grid).tobytes())
    return digest.hexdigest()


def refusal_rows() -> list[str]:
    rows = []
    for experiment in g.Experiment:
        for dims in REFUSAL_DIMS:
            triple = {}
            if dims is not None:
                triple = ({"reduced": g.ReducedDims(*dims)} if experiment.takes_reduced
                          else {"dims": g.ProblemDims(*dims)})
            for samples, alpha_level, seed in product((0, 1, 2, 5), (0.01, 1.5), (0, -1)):
                try:
                    g.run_experiment(experiment, samples=samples, alpha_level=alpha_level,
                                     seed=seed, **triple)
                    outcome = "passed"
                except GsvdistError as exc:
                    outcome = f"{type(exc).__name__}: {exc}"
                rows.append(f"{experiment.value} {dims} {samples} {alpha_level} {seed}: {outcome}")
    return rows


def _run(command: list[str], **kwargs) -> bytes:
    """Stdout of ``command``; exits with its stderr when it fails."""
    done = subprocess.run(command, capture_output=True, **kwargs)
    if done.returncode:
        sys.exit(f"{' '.join(command)} failed:\n{done.stderr.decode(errors='replace')}")
    return done.stdout


def output_at(rev: str) -> list[str]:
    """This script's ``--rows`` output lines with ``src/`` taken from git revision ``rev``."""
    archive = _run(["git", "archive", rev, "src"], cwd=ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        child = [sys.executable, os.path.abspath(__file__), "--rows"]
        return _run(child, env=env).decode().splitlines()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", action="store_true", help="also print the refusal rows")
    parser.add_argument("--against", metavar="REV",
                        help="also run the digests with src/ at git revision REV and compare")
    args = parser.parse_args()
    rows = refusal_rows()
    refusals = hashlib.sha256("".join(row + "\n" for row in rows).encode()).hexdigest()
    digests = [f"reports {reports_digest()}", f"laws {laws_digest()}", f"runs {runs_digest()}",
               f"refusals {refusals}"]
    if args.against is None:
        print("\n".join(digests + rows if args.rows else digests))
        return
    other = output_at(args.against)
    for line, then in zip(digests, other):
        name, value = line.split()
        before = then.split()[1]
        print(name, before, value, "same" if before == value else "differs")
    if args.rows:
        diff = difflib.unified_diff(other[len(digests):], rows, args.against, "working tree",
                                    lineterm="")
        sys.stdout.writelines(line + "\n" for line in diff)


if __name__ == "__main__":
    main()

"""Digests that show a change leaves gsvdist's results as they were.

Run from the repository root on two commits and compare the output:

    PYTHONPATH=src python tools/identity.py [--rows]

It prints three SHA-256 digests, one a line:

* ``reports``: the UTF-8 of ``json.dumps(report.to_dict(), sort_keys=True)``
  for each report of the benchmark's verify plan (``perfbench/families.py``
  ``VERIFY_PLAN``) at seeds 0 and 1, then ``normalization`` at (3, 2, 4).
* ``laws``: for the benchmark's 198 sweep triples and ``EXTRA_TRIPLES``,
  ``asdict(law_params)`` as sorted JSON and ``repr(log_norm_constant)``;
  then, for the pdf, the CDF and the reciprocal pdf, the ``tobytes()`` of
  their values on ``geomspace(1e-3, 1e3, 200)`` and the ``repr`` of the
  value at 1.0; for the CDF also the ``repr`` of its values at ``CDF_EDGES``.
* ``refusals``: one line per call of ``run_experiment`` over every
  experiment, ``REFUSAL_DIMS`` (the triple goes in as ``reduced`` for
  ``normalization`` and as ``dims`` otherwise; ``None`` leaves it out),
  samples 0, 1, 2 and 5 and ``alpha_level`` 0.01 and 1.5: the exception's
  type and message, or ``passed`` when the call returns.

Each digest runs over its pieces in that order.  ``--rows`` also prints the
refusal lines, so that a diff of two outputs names the rows that changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict

import numpy as np

import gsvdist as g
from gsvdist.errors import GsvdistError

# the verify plan and the law sweep are the benchmark's, stated once there
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from families import VERIFY_PLAN, law_triples  # noqa: E402

EXTRA_TRIPLES = ((40, 40, 60), (150, 150, 150), (400, 3, 900), (10, 10, 1500), (1, 1, 10**6),
                 (50, 2, 120))
CDF_EDGES = (0.0, -0.0, np.inf, 1e-310)
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


def refusal_rows() -> list[str]:
    rows = []
    for experiment in g.Experiment:
        for dims in REFUSAL_DIMS:
            triple = {}
            if dims is not None:
                triple = ({"reduced": g.ReducedDims(*dims)} if experiment.takes_reduced
                          else {"dims": g.ProblemDims(*dims)})
            for samples in (0, 1, 2, 5):
                for alpha_level in (0.01, 1.5):
                    try:
                        g.run_experiment(experiment, samples=samples, alpha_level=alpha_level,
                                         **triple)
                        outcome = "passed"
                    except GsvdistError as exc:
                        outcome = f"{type(exc).__name__}: {exc}"
                    rows.append(f"{experiment.value} {dims} {samples} {alpha_level}: {outcome}")
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", action="store_true", help="also print the refusal rows")
    args = parser.parse_args()
    rows = refusal_rows()
    print("reports", reports_digest())
    print("laws", laws_digest())
    print("refusals", hashlib.sha256("".join(row + "\n" for row in rows).encode()).hexdigest())
    if args.rows:
        print("\n".join(rows))


if __name__ == "__main__":
    main()

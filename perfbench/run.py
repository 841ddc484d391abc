"""gsvdist benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload {verify,laws} --seed N \\
        --seconds S --trace {0,1} [--smoke]

The workloads are the ones ``BENCHMARK.json`` names.  The package is
imported from ``src/`` of the checkout; the run fails with a non-zero exit
when ``src/gsvdist`` is missing.

Each workload is named after the family of operations it measures
(``families.py``).  Every pass of a family runs in a fresh worker process
(``worker.py``) whose ``import gsvdist`` time is one ``setup_s`` sample.
The passes run one process after another for up to ``--seconds``.

``--trace 0`` runs only full-size passes of the named family and reports
the end-to-end metrics, ``setup_s`` and ``wall_s``.  ``--trace 1`` runs
the named family both untraced and traced, beside traced smoke-size
passes of the other three families, each pass going to the slot furthest
below its share of the time (60 % for the named family); it reports the
per-layer metrics, every family's own metrics and the tracing overhead.
``--smoke`` runs one pass of each slot at smoke size.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give the
environment, every metric with its unit, the sample counts, the failure
ratio and the number of statistical verdicts that rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import summary

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
FAMILIES = ("verify", "laws", "pairs", "cli")
# share of a traced run that goes to the named family's passes; the other
# families' smoke passes share the rest equally
HOME_SHARE = 0.6
# no pass starts after this; a run must end well within 180 s
RUN_CAP_S = 110.0
WORKER_TIMEOUT_S = 60
clock = time.perf_counter


class BenchError(RuntimeError):
    pass


def _worker(family: str, seed: int, smoke: bool, traced: bool) -> dict:
    """Run one pass in a fresh process and return its result line."""
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    argv = [sys.executable, WORKER, family, "--seed", str(seed),
            *["--smoke"] * smoke, *["--trace"] * traced]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{family} worker took over {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{family} worker failed with exit code {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def schedule(home: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Run passes one process after another and return their results per
    slot (family, traced).  Every slot runs one pass first; then each pass
    goes to the slot furthest below its share of the time so far, among the
    slots whose next pass, as long as their last, would end within
    ``seconds``."""
    if traced:
        probe_slots = [(f, True) for f in FAMILIES if f != home]
        share = {(home, False): HOME_SHARE / 2, (home, True): HOME_SHARE / 2}
        share.update((slot, (1 - HOME_SHARE) / len(probe_slots)) for slot in probe_slots)
    else:
        share = {(home, False): 1.0}
    results: dict[tuple, list] = {slot: [] for slot in share}
    busy = dict.fromkeys(share, 0.0)
    last: dict[tuple, float] = {}
    start = clock()
    while True:
        elapsed = clock() - start
        if elapsed > RUN_CAP_S:
            raise BenchError(f"the passes did not end within {RUN_CAP_S} s")
        todo = ([slot for slot in share if not results[slot]]
                or [slot for slot in share if elapsed + last[slot] <= seconds])
        if not todo:
            return results
        slot = min(todo, key=lambda s: busy[s] / share[s])
        t0 = clock()
        results[slot].append(_worker(slot[0], seed, smoke or slot[0] != home, slot[1]))
        last[slot] = clock() - t0
        busy[slot] += last[slot]


def environment(seed: int) -> dict:
    """The environment block; this first import also compiles the bytecode."""
    return _worker("env", seed, False, False)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass of each slot at smoke size")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gsvdist", "__init__.py")):
        print(f"error: no gsvdist sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    run_start = clock()
    home, traced = args.workload, bool(args.trace)
    try:
        env = environment(args.seed)
        results = schedule(home, args.seed, 0.0 if args.smoke else args.seconds, traced, args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    dump = os.path.join(ROOT, ".perfbench_out", f"passes-{home}-trace{args.trace}.json")
    with open(dump, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "passes": [{"family": f, "traced": t, **r}
                                          for (f, t), passes in results.items() for r in passes]}, fh)

    every = [r for passes in results.values() for r in passes]
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    verdicts_failed = sum(r["verdicts_failed"] for r in every)
    for r in every:
        for message in r["messages"]:
            print(f"failure: {message}", file=sys.stderr)

    home_wall = summary.wall_s(results[(home, False)])
    if traced:
        values = {}
        for family in FAMILIES:
            values.update(summary.layer_metrics(results[(family, True)]))
            # the family's own metrics: the named family's from its untraced
            # passes, the others' from their traced smoke passes
            passes = results.get((family, False)) or results[(family, True)]
            values.update(summary.FAMILY_METRICS[family](passes))
        values["tracing.overhead_s"] = summary.wall_s(results[(home, True)]) - home_wall
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(r["setup_s"] for r in every), "wall_s": home_wall}
        wanted = spec["end_to_end"]

    metrics = {}
    for entry in wanted:
        value = values.get(entry["name"])
        if value is None or not math.isfinite(value):
            print(f"error: metric {entry['name']} was not measured ({value})", file=sys.stderr)
            return 1
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {home} seed {args.seed} trace {args.trace} smoke {int(args.smoke)}, "
          f"{clock() - run_start:.1f} s")
    for (family, is_traced), passes in results.items():
        group = summary.SAMPLE_GROUP[family]
        print(f"passes {family}{' traced' if is_traced else ''}: {len(passes)}, "
              f"{len(summary.items(passes, group))} items of {group}")
    print(f"setup samples: {len(every)} worker imports")
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_ratio = {failed / max(attempted, 1):.6g} ratio ({failed} of {attempted} operations)")
    print(f"verdicts_failed = {verdicts_failed} count")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

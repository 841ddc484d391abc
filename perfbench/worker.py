"""One pass of one benchmark family, in a fresh process.

Usage: python perfbench/worker.py {verify,laws,pairs,cli,env} --seed N
                                  [--smoke] [--trace]

``import gsvdist`` is timed first, before anything else loads numpy or
scipy, so ``setup_s`` is a cold-process import.  ``env`` prints the
environment block and exits.  Otherwise the worker runs every unit of the
pass and prints the pass result, with ``setup_s``, as one JSON line.  A
traced pass writes its spans to ``.perfbench_out/spans-<family>.json``.
"""

import time

_t0 = time.perf_counter()
import gsvdist  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import families  # noqa: E402
from tracing import NullTracer, Tracer, install  # noqa: E402


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(families.ROOT))
    try:
        proc = subprocess.run(["git", "-C", families.ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gsvdist": gsvdist.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("family", choices=[*families.FAMILIES, "env"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.family == "env":
        print(json.dumps(environment(args.seed)))
        return
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        install(tracer)
    bench_pass = families.FAMILIES[args.family](args.seed, args.smoke, tracer)
    for unit in bench_pass.units():
        unit()
    result = bench_pass.result()
    if args.trace:
        os.makedirs(families.OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(families.OUT_DIR, f"spans-{args.family}.json"))
    print(json.dumps({"setup_s": SETUP_S, **result}))


if __name__ == "__main__":
    main()

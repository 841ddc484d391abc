"""Self-test of the benchmark at smoke size.

Usage (from the repository root):  python3 perfbench/selftest.py

Runs every workload with ``--smoke`` at ``--trace 0`` and ``--trace 1``,
seed 0, and checks each result line against ``BENCHMARK.json``: exactly the
contract's keys, every metric named there with its unit and a finite
value, ``correct`` with no failed operation and no rejected verdict.  Then
checks that a directory holding only ``BENCHMARK.json`` and the benchmark's
own files is refused with a non-zero exit and no result line.  Takes about
a minute; exits non-zero when any check fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def problems(proc: subprocess.CompletedProcess, wanted: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        out.append(f"correct {result['correct']}, failed {result['failed']} of {result['attempted']}")
    if "verdicts_failed = 0 count" not in lines:
        out.append("a statistical verdict rejected at seed 0")
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        out.append(f"metric names differ: {sorted(set(result['metrics']) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got and (got["unit"] != m["unit"] or not math.isfinite(got["value"])):
            out.append(f"{m['name']}: {got}")
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            found = problems(run(ROOT, workload, trace), wanted)
            print(f"{workload} trace {trace}: {'ok' if not found else 'FAILED'}")
            for line in found:
                print(f"  {line}")
            failures += bool(found)

    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    refused = proc.returncode != 0 and '"correct"' not in proc.stdout
    print(f"bare directory refused: {'ok' if refused else 'FAILED'}")
    failures += not refused
    shutil.rmtree(bare)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

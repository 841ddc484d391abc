"""Reduce pass results to metrics, item by item.

Every sample is keyed by an item (an experiment, a triple, one call of one
pair, a command), and passes repeat the same items on the same inputs at
different moments of the run.  An item's value is the median of its
repeats, which ignores the repeat that one long stall of a shared
machine hit.  The metrics are medians and percentiles over items.  Pure
Python: the orchestrator does not import numpy or gsvdist.
"""

from __future__ import annotations

import statistics


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def items(passes: list[dict], group: str) -> dict[str, float]:
    values: dict[str, list[float]] = {}
    for p in passes:
        for item, value in p["samples"].get(group, {}).items():
            values.setdefault(item, []).append(value)
    return {item: statistics.median(v) for item, v in values.items()}


def wall_s(passes: list[dict]) -> float:
    """Operation time of one whole pass: the sum over units of each unit's
    median over the passes."""
    return sum(map(statistics.median, zip(*(p["unit_s"] for p in passes))))


def _verify(passes):
    took = items(passes, "experiment_s")
    draws = items(passes, "draws")
    return {
        "verdict_s_p50": statistics.median(took.values()),
        "draws_per_s": sum(draws.values()) / sum(took[i] for i in draws),
    }


def _laws(passes):
    cold = items(passes, "cold_s").values()
    grid = sum(items(passes, "grid_pdf_s").values()) + sum(items(passes, "grid_cdf_s").values())
    return {
        "table_s_p50": percentile(cold, 50),
        "table_s_p90": percentile(cold, 90),
        "eval_points_per_s": 2 * sum(items(passes, "grid_points").values()) / grid,
        "quad_s_p50": statistics.median(items(passes, "quad_s").values()),
    }


def _pairs(passes):
    calls = items(passes, "call_s").values()
    return {"pair_us_p50": percentile(calls, 50) * 1e6, "pair_us_p99": percentile(calls, 99) * 1e6}


def _cli(passes):
    return {"cli_s_p50": statistics.median(items(passes, "command_s").values())}


FAMILY_METRICS = {"verify": _verify, "laws": _laws, "pairs": _pairs, "cli": _cli}


def layer_metrics(passes: list[dict]) -> dict[str, float]:
    """Median over traced passes of each per-layer metric."""
    layers = [p["layer"] for p in passes]
    return {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}


# the items each family's percentiles are taken over, for the sample counts
SAMPLE_GROUP = {"verify": "experiment_s", "laws": "cold_s", "pairs": "call_s", "cli": "command_s"}

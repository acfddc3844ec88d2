"""The benchmark's fixed definitions: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repo root is the single source for everything
the driver gates — the four workloads, the end-to-end metrics every
workload reports with their regression bounds, and the per-layer metric
list.  This module loads it and adds the two end-to-end metrics that exist
on some workloads only (the contract wants every listed metric from every
workload, so they cannot be listed there); ``compare`` gates both kinds.
"""

from __future__ import annotations

import json
import pathlib
import statistics

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
RESULTS_DIR = HERE / "results"

with open(REPO_ROOT / "BENCHMARK.json") as _fh:
    CONTRACT = json.load(_fh)

WORKLOADS = tuple(w["name"] for w in CONTRACT["workloads"])
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}

#: End-to-end metrics only some workloads have: name -> (metric, workloads).
WORKLOAD_SPECIFIC = {
    "scalar_pkts_per_s": (
        {"name": "scalar_pkts_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
        ("uniform_read", "probe_mix"),
    ),
    "recover_s": (
        {"name": "recover_s", "unit": "s", "better": "lower", "bound": 0.25},
        ("control_write",),
    ),
}

#: Printed and recorded, never gated.
REPORTED_ONLY = {"throughput_mean_per_s": "1/s", "latency_p95_us": "us",
                 "latency_p99_us": "us", "latency_samples": "count"}


def unit_of(name: str) -> str:
    for table in (END_TO_END, PER_LAYER):
        if name in table:
            return table[name]["unit"]
    if name in WORKLOAD_SPECIFIC:
        return WORKLOAD_SPECIFIC[name][0]["unit"]
    return REPORTED_ONLY[name]


def gated_metrics(workload: str) -> dict[str, dict]:
    """Every bounded end-to-end metric ``workload`` reports."""
    out = dict(END_TO_END)
    for name, (metric, workloads) in WORKLOAD_SPECIFIC.items():
        if workload in workloads:
            out[name] = metric
    return out


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an already sorted sample."""
    return sorted_values[min(len(sorted_values) - 1,
                             int(q * len(sorted_values)))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as the driver takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0

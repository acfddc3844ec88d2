"""Shared report formatting for the benchmark suite.

Every table/figure bench regenerates its rows, prints them, and writes them
to ``benchmarks/results/<name>.txt`` so the regenerated evaluation artefacts
survive the pytest output capture.
"""

from __future__ import annotations

import pathlib
import re

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def format_table(title: str, headers: list[str], rows: list[list[str]]) -> str:
    """A plain fixed-width table."""
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]

    def fmt_row(cells: list[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = [title, "=" * len(title), fmt_row(headers),
             fmt_row(["-" * w for w in widths])]
    lines += [fmt_row(row) for row in rows]
    return "\n".join(lines)


_POLICY_LABEL = re.compile(r'\{policy="(?P<policy>[^"]*)"\}$')


def format_filter_counters(title: str, metrics_snapshot: dict) -> str:
    """Evaluation/cache-counter table from a metrics-registry snapshot.

    Reads the ``filter_evaluations_total`` / ``filter_memo_hits_total`` /
    ``filter_memo_misses_total`` series (as emitted by
    :func:`repro.obs.snapshot`) grouped by their ``policy`` label, plus the
    derived hit rate, so benchmark speedups are attributable to the memo
    versus the raw fast path.
    """
    counters = metrics_snapshot.get("counters", {})
    per_policy: dict[str, dict[str, float]] = {}
    for series, value in counters.items():
        match = _POLICY_LABEL.search(series)
        if match is None:
            continue
        name = series.split("{", 1)[0]
        per_policy.setdefault(match.group("policy"), {})[name] = value
    rows = []
    for policy in sorted(per_policy):
        c = per_policy[policy]
        evals = int(c.get("filter_evaluations_total", 0))
        hits = int(c.get("filter_memo_hits_total", 0))
        misses = int(c.get("filter_memo_misses_total", 0))
        hit_rate = f"{hits / evals:.1%}" if evals else "-"
        rows.append([policy, str(evals), str(hits), str(misses), hit_rate])
    return format_table(
        title,
        ["policy", "evaluations", "memo hits", "memo misses", "hit rate"],
        rows,
    )


_LABEL_PAIR = re.compile(r'(?P<key>\w+)="(?P<value>[^"]*)"')


def parse_series(series: str) -> tuple[str, dict[str, str]]:
    """Split an exporter series key into (name, labels)."""
    name, _, rest = series.partition("{")
    return name, {m.group("key"): m.group("value")
                  for m in _LABEL_PAIR.finditer(rest)}


def format_engine_counters(title: str, metrics_snapshot: dict) -> str:
    """Batched-engine/codegen counter table from a metrics-registry snapshot.

    Reads the ``filter_batches_total`` / ``filter_batch_rows_total`` /
    ``filter_batch_path_rows_total{path=...}`` and
    ``codegen_cache_{hits,misses}_total`` series as emitted by
    :func:`repro.obs.snapshot`, grouped by ``policy`` label: the registry
    snapshot is the one place a counter is read.
    """
    counters = metrics_snapshot.get("counters", {})
    per_policy: dict[str, dict[str, float]] = {}
    for series, value in counters.items():
        name, labels = parse_series(series)
        policy = labels.get("policy")
        if policy is None:
            continue
        if name == "filter_batch_path_rows_total":
            name = f"rows_{labels.get('path', '?')}"
        per_policy.setdefault(policy, {})[name] = value
    rows = []
    for policy in sorted(per_policy):
        c = per_policy[policy]
        if not any(k.startswith(("filter_batch", "rows_", "codegen_"))
                   for k in c):
            continue
        rows.append([
            policy,
            str(int(c.get("filter_batches_total", 0))),
            str(int(c.get("filter_batch_rows_total", 0))),
            str(int(c.get("rows_broadcast", 0))),
            str(int(c.get("rows_engine", 0))),
            str(int(c.get("rows_fallback", 0))),
            str(int(c.get("codegen_cache_hits_total", 0))),
            str(int(c.get("codegen_cache_misses_total", 0))),
        ])
    return format_table(
        title,
        ["policy", "batches", "rows", "broadcast", "engine", "fallback",
         "cg hits", "cg misses"],
        rows,
    )


def emit(name: str, text: str) -> None:
    """Print the report and persist it under benchmarks/results/."""
    print("\n" + text + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

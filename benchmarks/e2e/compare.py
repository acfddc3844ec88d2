"""Noise-aware comparison of two run sets (``choosing-metrics`` §6–§8).

A run set is what ``python -m benchmarks.e2e`` writes: per workload, K
end-to-end runs and one traced pass.  For every (end-to-end metric,
workload) pair the bounds fixed in ``BENCHMARK.json`` / ``spec.py`` give one
of four verdicts, each workload in its own rows and every ratio with its
base:

``regression``  B's median is worse than A's by more than the bound;
``unresolved``  not a regression, but A's or B's own spread exceeds the
                bound and B does not beat A on every run — never reported
                as unchanged;
``gain``        at least ten run pairs, B wins nine tenths of them (ties
                count for neither) and the medians differ by more than A's
                interquartile distance;
``unchanged``   otherwise.

Per-layer counts, ``sim.latency_cycles`` and ``output_digest`` must be
identical: a host-speed change may not move a modelled statistic.
"""

from __future__ import annotations

import statistics

from . import spec


#: Fewer run pairs than this never make a gain (``choosing-metrics`` §8).
MIN_PAIRS = 10


def is_exact(name: str) -> bool:
    """Per-layer metrics that must repeat exactly for a seed: everything
    but host times and the two ratios derived from host times."""
    return (spec.PER_LAYER[name]["unit"] != "ms"
            and not name.startswith("trace."))


def verdict(metric: dict, a: list[float], b: list[float]) -> dict:
    """Compare B (the change) against A (the base) on one metric."""
    lower = metric["better"] == "lower"
    qa, qb = spec.quartiles(a), spec.quartiles(b)
    base, new = qa[1], qb[1]
    worse_by = ((new - base) if lower else (base - new)) / base
    pairs = list(zip(a, b))
    wins = sum((y < x) if lower else (y > x) for x, y in pairs)
    ties = sum(x == y for x, y in pairs)
    every_run_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    noisy = max(spec.spread(a), spec.spread(b)) > metric["bound"]
    if worse_by > metric["bound"]:
        word = "regression"
    elif noisy and not every_run_better:
        word = "unresolved"
    elif (len(pairs) >= MIN_PAIRS and wins >= 0.9 * (len(pairs) - ties)
          and worse_by < 0 and abs(new - base) > qa[2] - qa[0]):
        word = "gain"
    else:
        word = "unchanged"
    return {
        "verdict": word, "base": qa, "new": qb, "ratio": new / base,
        "wins": wins, "pairs": len(pairs) - ties,
        "spread_base": spec.spread(a), "spread_new": spec.spread(b),
    }


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Report lines for run set B against base A, and whether B passes
    (no regression, no failed output, no modelled statistic moved)."""
    lines: list[str] = []
    ok = True
    for side, run_set in (("A", a), ("B", b)):
        p = run_set["provenance"]
        lines.append(f"{side}: {p['git_sha'][:12]} {p['date']} "
                     f"python {p['python']} nproc {p['nproc']} "
                     f"lane {p['engine_lane']} seed {run_set['seed']} "
                     f"seconds {run_set['seconds']}")
    if a["provenance"]["engine_lane"] != b["provenance"]["engine_lane"]:
        lines.append("engine lanes differ: these numbers are not comparable")
        return lines, False
    for workload in spec.WORKLOADS:
        runs_a, runs_b = a["runs"][workload], b["runs"][workload]
        lines.append("")
        lines.append(f"{workload}  (A n={len(runs_a)}, B n={len(runs_b)})")
        failed = sum(r["failed"] for r in runs_a + runs_b)
        if failed:
            ok = False
            lines.append(f"  FAILED outputs: {failed}")
        for name, metric in spec.gated_metrics(workload).items():
            v = verdict(metric,
                        [r["metrics"][name] for r in runs_a],
                        [r["metrics"][name] for r in runs_b])
            ok = ok and v["verdict"] != "regression"
            lines.append(
                f"  {name:20s} {metric['unit']:4s} "
                f"A {v['base'][1]:13.4f} [{v['base'][0]:.4f}, "
                f"{v['base'][2]:.4f}]  "
                f"B {v['new'][1]:13.4f} [{v['new'][0]:.4f}, "
                f"{v['new'][2]:.4f}]  "
                f"B/A {v['ratio']:.4f}  wins {v['wins']}/{v['pairs']}  "
                f"spread {max(v['spread_base'], v['spread_new']):.1%} "
                f"bound {metric['bound']:.0%}  {v['verdict']}"
            )
        layers_a = a["traced"][workload]["metrics"]
        layers_b = b["traced"][workload]["metrics"]
        moved = [n for n in spec.PER_LAYER
                 if is_exact(n) and layers_a.get(n, 0) != layers_b.get(n, 0)]
        if moved and a["seed"] == b["seed"]:
            ok = False
        for name in moved:
            lines.append(f"  {name:45s} A {layers_a.get(name, 0)}  "
                         f"B {layers_b.get(name, 0)}  DIFFERENT"
                         + ("" if a["seed"] == b["seed"]
                            else " (seeds differ)"))
        if not moved:
            lines.append("  per-layer counts, sim.latency_cycles, "
                         "output_digest: identical")
        for name in spec.PER_LAYER:
            va, vb = layers_a.get(name, 0), layers_b.get(name, 0)
            if not is_exact(name) and (va or vb):
                ratio = f"{vb / va:.4f}" if va else "n/a"
                lines.append(f"  {name:45s} A {va:12.4f}  B {vb:12.4f}  "
                             f"B/A {ratio}")
    return lines, ok


def summarize(run_set: dict) -> list[str]:
    """Every metric of one run set by name and unit: median, quartiles
    and spread of the end-to-end runs, then the traced pass."""
    lines: list[str] = []
    for workload, runs in run_set["runs"].items():
        lines.append("")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        lines.append(f"{workload}  n={len(runs)}  failed_ratio "
                     f"{failed}/{attempted}")
        gated = spec.gated_metrics(workload)
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            q1, q2, q3 = spec.quartiles(values)
            bound = (f"bound {gated[name]['bound']:.0%}" if name in gated
                     else "not gated")
            lines.append(f"  {name:45s} median {q2:16.4f}  "
                         f"[{q1:.4f}, {q3:.4f}]  "
                         f"spread {spec.spread(values):6.2%}  {bound}")
        traced = run_set["traced"].get(workload)
        if traced:
            lines.append(f"  -- traced pass (failed {traced['failed']}/"
                         f"{traced['attempted']}, "
                         f"output_digest {traced['output_digest'][:16]})")
            for name, value in traced["metrics"].items():
                if value:
                    lines.append(f"  {name:45s} {value:23.4f} "
                                 f"{spec.PER_LAYER[name]['unit']}")
    return lines


def trajectory_point(run_set: dict) -> dict:
    """The append-only record of one run set: provenance and medians."""
    return {
        **run_set["provenance"], "seed": run_set["seed"],
        "seconds": run_set["seconds"],
        "end_to_end": {
            workload: {name: statistics.median(r["metrics"][name]
                                               for r in runs)
                       for name in runs[0]["metrics"]}
            for workload, runs in run_set["runs"].items()
        },
        "per_layer": {workload: traced["metrics"]
                      for workload, traced in run_set["traced"].items()},
        "output_digest": {workload: traced["output_digest"]
                          for workload, traced in run_set["traced"].items()},
    }

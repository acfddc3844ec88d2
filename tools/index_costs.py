#!/usr/bin/env python3
"""Time the SMBM's per-metric read structures, write side and read side:
``PYTHONPATH=src python tools/index_costs.py [--seed 1] [--repeat 5]``.

For N = 64, 256 and 1024 it fills a one-metric table (``N`` rows, values
drawn from ``[0, 1000)``) and times, in microseconds per call:

* ``write`` — one ``update`` of a random row to a random value on a table
  whose sorted list and one predicate set (``<`` the median value) are
  read, then the ``metric_index`` read: the whole cost a probe adds to a
  metric a select and a predicate read, list move and set upkeep both;
* ``unread`` — the same ``update`` on a table nobody has read;
* ``build`` — the first ``metric_index`` read of a full table;
* ``predicate`` (the set read, cut to the candidate mask), ``min``,
  ``max`` and ``select`` (top-3) on random candidate masks, half dense and
  half 16-of-N sparse;
* ``w+r`` — ``write`` plus one each of ``min``, ``max`` and ``select``:
  the per-B figure ``bucket_span`` follows (DESIGN.md).

On a checkout with ``repro.core.smbm.bucket_span`` it repeats the table
for every candidate bucket size B (``--spans``, the checkout's own choice
marked ``*``); on an older checkout, whose index is one flat prefix array,
it prints one ``flat`` row per N.  On a checkout without
``SMBM.predicate_set`` the predicate is the index's ``predicate_mask``
search, patched with the list.  So running it with ``PYTHONPATH`` at
either ``src`` puts the designs side by side.  Each figure is the best of
``--repeat`` timed loops.  Prints one Markdown table.
"""

from __future__ import annotations

import argparse
import random
import time

from repro.core import smbm as smbm_module
from repro.core.operators import RelOp

SIZES = (64, 256, 1024)
#: Writes per timed loop.
WRITES = 200
MEDIAN = 500
SETS = hasattr(smbm_module.SMBM, "predicate_set")


def best_us(run, repeat: int, calls: int) -> float:
    """Best per-call time of ``repeat`` runs of ``run()`` (``calls`` calls
    each), in µs."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter_ns()
        run()
        best = min(best, (time.perf_counter_ns() - start) / calls)
    return best / 1e3


def table(n: int, rng: random.Random, read: bool) -> smbm_module.SMBM:
    smbm = smbm_module.SMBM(n, ("x",))
    for rid in range(n):
        smbm.add(rid, {"x": rng.randrange(1000)})
    if read:
        smbm.metric_index("x")
        if SETS:
            smbm.predicate_set("x", RelOp.LT, MEDIAN)
    return smbm


def predicate(smbm: smbm_module.SMBM):
    """The predicate read, ``x < MEDIAN`` cut to a candidate mask."""
    if SETS:
        return lambda m: smbm.predicate_set("x", RelOp.LT, MEDIAN) & m
    index = smbm.metric_index("x")
    return lambda m: index.predicate_mask(RelOp.LT, MEDIAN, m)


def row(n: int, seed: int, repeat: int) -> list[float]:
    rng = random.Random(f"{seed}/{n}")

    def writes(smbm, read: bool):
        # Fresh writes for every timed loop: a row rewritten to the value
        # it already holds moves no rank.
        loops = iter([[(rng.randrange(n), {"x": rng.randrange(1000)})
                       for _ in range(WRITES)] for _ in range(repeat)])

        def run():
            for rid, metrics in next(loops):
                smbm.update(rid, metrics)
                if read:
                    smbm.metric_index("x")
        return run

    fresh = [table(n, rng, read=False) for _ in range(repeat)]
    read = table(n, rng, read=True)
    index, holds = read.metric_index("x"), predicate(read)
    masks = [rng.getrandbits(n) if i % 2 else
             sum(1 << r for r in rng.sample(range(n), min(16, n)))
             for i in range(64)]
    reads = (
        lambda: [holds(m) for m in masks],
        lambda: [index.min_mask(m) for m in masks],
        lambda: [index.max_mask(m) for m in masks],
        lambda: [index.select_mask(m, 3, True) for m in masks],
    )
    costs = [
        best_us(writes(table(n, rng, read=True), True), repeat, WRITES),
        best_us(writes(table(n, rng, read=False), False), repeat, WRITES),
        min(best_us(lambda t=t: t.metric_index("x"), 1, 1) for t in fresh),
        *(best_us(read, repeat, len(masks)) for read in reads),
    ]
    return costs + [costs[0] + sum(costs[4:])]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--spans", type=int, nargs="+",
                        default=[4, 8, 12, 16, 24, 32, 48, 64])
    args = parser.parse_args(argv)
    print("| N | B | write | unread | build | predicate | min | max | select "
          "| w+r |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    chosen = getattr(smbm_module, "bucket_span", None)
    for n in SIZES:
        spans = ["flat"] if chosen is None else sorted({*args.spans, chosen(n)})
        for span in spans:
            if chosen is not None:
                smbm_module.bucket_span = lambda _n, span=span: span
            mark = "*" if chosen is not None and span == chosen(n) else ""
            print(f"| {n} | {span}{mark} | " + " | ".join(
                f"{cost:.2f}" for cost in row(n, args.seed, args.repeat)) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

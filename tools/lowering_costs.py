#!/usr/bin/env python3
"""Time the policy lowerings on the benchmark's shape:
``PYTHONPATH=src python tools/lowering_costs.py [--seed 1] [--repeat 7]``.

Builds the four ``benchmarks/e2e`` tenants ``t0..t3`` (N=1024, every table
full, ``--seed`` fixing tables and masks) and times, per tenant, the
callables that serve a row:

* a masked column of B = 1, 16 and 256 rows, half dense and half
  16-of-1024 sparse as ``masked_read`` draws them: the column fold
  (``BatchedEvaluator.evaluate_masks``) against the kernel
  (``PlanCodegen.evaluate_masks``), both on an already-specialised table
  version;
* a memo miss, right after a table write: the kernel respecialising and
  running (``PlanCodegen.evaluate``) against the walk of the compiled Cells
  (``CompiledPolicy.evaluate``) the row routine ran in its place;
* ``probe_mix``'s stateful ``t3`` (round-robin), one row on an unchanged
  table: the Cell walk (``CompiledPolicy.evaluate``) that served each of
  its rows before the kernel stepped units, against the kernel's unit
  step (``PlanCodegen.evaluate`` on an already-specialised version).

Each figure is the best of ``--repeat`` timed loops, in microseconds per
call; ``fold/kernel`` and ``cells/kernel`` are how many times faster the
kernel is.  Prints one Markdown table.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.e2e import shape  # noqa: E402
from repro.core.pipeline import PipelineParams  # noqa: E402
from repro.engine.batch import META_FILTER_INPUT  # noqa: E402
from repro.engine.columnar import BatchedEvaluator  # noqa: E402
from repro.switch.filter_module import FilterModule  # noqa: E402

COLUMNS = (1, 16, 256)
#: Wall time one timed loop aims for.
LOOP_S = 0.02


def best_us(call, repeat: int) -> float:
    """Best per-call time of ``repeat`` loops of ``call()``, in µs."""
    start = time.perf_counter()
    call()
    calls = max(1, int(LOOP_S / max(time.perf_counter() - start, 1e-7)))
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter_ns()
        for _ in range(calls):
            call()
        best = min(best, (time.perf_counter_ns() - start) / calls)
    return best / 1e3


def after_a_write_us(module: FilterModule, evaluate, repeat: int) -> float:
    """Best time of ``evaluate()`` right after a table write, in µs (the
    write itself is not timed).  Each write rewrites a row with its own
    metrics: the table's contents stay put, its version moves."""
    smbm = module.smbm
    rows = [(rid, smbm.metrics_of(rid)) for rid in range(64)]
    best = float("inf")
    for _ in range(repeat):
        total = 0
        for rid, metrics in rows:
            module.update_resource(rid, metrics)
            start = time.perf_counter_ns()
            evaluate()
            total += time.perf_counter_ns() - start
        best = min(best, total / len(rows))
    return best / 1e3


def measure(seed: int, repeat: int):
    """Per tenant: ``(name, [(slower µs, kernel µs), ...])``, one pair per
    column size, then the memo miss's (Cell walk, kernel) pair; last the
    stateful ``t3``'s (Cell walk, unit step) pair for one row."""
    writes = shape.table_writes(seed)
    masks = [packet.metadata[META_FILTER_INPUT]
             for packet in shape.masked_pool(seed)[0][:max(COLUMNS)]]
    for name, policy in shape.policies().items():
        module = FilterModule(shape.ROWS, shape.METRICS, policy,
                              PipelineParams(n=8))
        for write in writes:
            if write.tenant == name:
                module.update_resource(write.resource_id, write.metrics)
        smbm, kernel = module.smbm, module.codegen
        fold = BatchedEvaluator(policy, shape.ROWS)
        pairs = [
            (best_us(lambda: fold.evaluate_masks(smbm, masks[:size]), repeat),
             best_us(lambda: kernel.evaluate_masks(smbm, masks[:size]),
                     repeat))
            for size in COLUMNS
        ]
        pairs.append((
            after_a_write_us(module, lambda: module.compiled.evaluate(smbm),
                             repeat),
            after_a_write_us(module, lambda: kernel.evaluate(smbm), repeat),
        ))
        yield name, pairs
    module = FilterModule(shape.ROWS, shape.METRICS,
                          shape.policies(stateful_t3=True)["t3"],
                          PipelineParams(n=8))
    for write in writes:
        if write.tenant == "t3":
            module.update_resource(write.resource_id, write.metrics)
    smbm, kernel = module.smbm, module.codegen
    walk = best_us(lambda: module.compiled.evaluate(smbm), repeat)
    step = None if kernel is None else best_us(  # no stateful kernel yet
        lambda: kernel.evaluate(smbm), repeat)
    yield "t3 (stateful)", [(None, None)] * len(COLUMNS) + [(walk, step)]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    head = ["tenant"]
    for size in COLUMNS:
        head += [f"B={size} fold / kernel (µs)", "fold/kernel"]
    head += ["miss (t3 stateful: one row): cells / kernel (µs)",
             "cells/kernel"]
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for name, pairs in measure(args.seed, args.repeat):
        line = [name]
        for slow, fast in pairs:
            if fast is None:
                line += ["—" if slow is None else f"{slow:.1f} / —", "—"]
            else:
                line += [f"{slow:.1f} / {fast:.1f}", f"{slow / fast:.2f}x"]
        print("| " + " | ".join(line) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

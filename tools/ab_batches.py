#!/usr/bin/env python3
"""Serve one data workload on two checkouts in one process:
``python tools/ab_batches.py ROOT_A ROOT_B [--workload masked_read]
[--seed 1] [--laps 10]``.

On a shared box the load can move by a third between two runs minutes
apart, more than most changes move a workload.  Two checkouts timed in
one process, their batches interleaved lap by lap, see the same load.
Each checkout's ``src/repro`` and ``benchmarks/e2e/shape.py`` are copied
to a scratch directory under a package name of their own (``repro_a``,
``repro_b``), imports rewritten, so both load side by side.  Each side
builds and warms its backend as ``benchmarks/e2e`` does and serves the
same pool; laps alternate which side goes first.  Prints each side's
median ``process_batch`` time with its quartiles, and B/A of the medians.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import re
import statistics
import sys
import tempfile
import time
from pathlib import Path

#: The data workloads of ``benchmarks/e2e/workloads.py``: pool, spec keywords.
WORKLOADS = {
    "uniform_read": ("uniform_pool", {}),
    "masked_read": ("masked_pool", {"codegen": ("t2", "t3")}),
    "probe_mix": ("probe_pool", {"stateful_t3": True}),
}
WARM_BATCHES = 2


def load(root: Path, name: str, into: Path):
    """``root``'s e2e shape module, importing ``root``'s package as ``name``."""
    def renamed(text: str) -> str:
        text = re.sub(r"\b(from|import) repro\b", rf"\1 {name}", text)
        return re.sub(r"\brepro\.(?=[a-z_])", f"{name}.", text)

    package = root / "src" / "repro"
    for path in package.rglob("*.py"):
        target = into / name / path.relative_to(package)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(renamed(path.read_text()))
    shape = root / "benchmarks" / "e2e" / "shape.py"
    (into / f"{name}_shape.py").write_text(renamed(shape.read_text()))
    return importlib.import_module(f"{name}_shape")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root_a", type=Path)
    parser.add_argument("root_b", type=Path)
    parser.add_argument("--workload", choices=WORKLOADS, default="masked_read")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--laps", type=int, default=10)
    args = parser.parse_args(argv)
    pool_name, spec_kwargs = WORKLOADS[args.workload]
    sides = {}
    # The copies stay on disk while they serve: a module may import lazily.
    with tempfile.TemporaryDirectory() as scratch:
        sys.path.insert(0, scratch)
        for side, root in (("A", args.root_a), ("B", args.root_b)):
            shape = load(root.resolve(), f"repro_{side.lower()}", Path(scratch))
            serving = importlib.import_module(f"repro_{side.lower()}.serving")
            pool = getattr(shape, pool_name)(args.seed)
            backend = shape.build_backend(serving.BatchedBackend, args.seed,
                                          **spec_kwargs)
            for batch in pool[:WARM_BATCHES]:
                backend.process_batch(batch)
            sides[side] = (backend.process_batch, pool, [])
        gc.collect()
        for lap in range(args.laps):
            for side in ("AB" if lap % 2 == 0 else "BA"):
                process, pool, times = sides[side]
                for batch in pool:
                    start = time.perf_counter_ns()
                    process(batch)
                    times.append(time.perf_counter_ns() - start)
    medians = {}
    for side, (_, _, times) in sides.items():
        q1, medians[side], q3 = statistics.quantiles(times, n=4)
        print(f"{side}: median {medians[side] / 1e6:.3f} ms per batch "
              f"[{q1 / 1e6:.3f}, {q3 / 1e6:.3f}] over {len(times)} batches")
    print(f"B/A {medians['B'] / medians['A']:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

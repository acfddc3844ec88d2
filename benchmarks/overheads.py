"""Three overhead budgets on the memoized read path.

What a packet pays, when nothing goes wrong, for machinery that is armed
but idle — the one thing ``benchmarks/e2e`` does not measure.  Each row
pairs a plain memoized :class:`~repro.switch.filter_module.FilterModule`
(N=1024, the fused predicate/predicate/min chain) with the same module
plus one piece of machinery, both answering ``evaluate()`` from the
SMBM-version memo:

* ``observability`` — built under a live :class:`repro.obs.MetricsRegistry`
  instead of the null registry (budget: < 5 %);
* ``fault machinery`` — ``self_healing=True`` with an ``ECCStore`` kept in
  lockstep and a ``Scrubber`` constructed, none of it triggered (< 5 %);
* ``sanitizer`` — ``sanitize=True``: its work rides on committed writes,
  so the read path must stay flat (< 10 %).

The two sides of a pair are timed back to back, the order alternated
every repeat, and the verdict is the **median of the per-repeat ratios**:
drift and noisy neighbours hit both halves of a repeat alike, and a stall
that lands in one half spoils one ratio, not the estimate.  (Best-of per
side and the ratio of two separately taken medians both wander by more
than the budgets on a shared box.)

    PYTHONPATH=src python benchmarks/overheads.py

prints the three percentages and exits 1 if any budget is blown.  No
flags, no artefact.
"""

from __future__ import annotations

import gc
import random
import statistics
import sys
import time
from collections.abc import Callable

from repro import obs
from repro.core.operators import RelOp
from repro.core.policy import Policy, TableRef, intersection, min_of, predicate
from repro.faults import ECCStore, Scrubber
from repro.switch.filter_module import FilterModule

METRICS = ("load", "mem")
N = 1024
REPEATS = 60
CALLS = 2000

#: Budget per armed variant, in percent over the plain module.
BUDGETS = {"observability": 5.0, "fault machinery": 5.0, "sanitizer": 10.0}

Samples = list[tuple[float, float]]


def verdict(name: str, samples: Samples) -> tuple[float, bool]:
    """``(overhead in percent, within budget)`` of variant ``name``: the
    median over the ``(plain_s, armed_s)`` repeats of armed/plain."""
    ratio = statistics.median(armed / plain for plain, armed in samples)
    pct = (ratio - 1.0) * 100.0
    return pct, pct < BUDGETS[name]


def time_pairs(plain: Callable[[], object],
               armed: Callable[[], object]) -> Samples:
    """``REPEATS`` interleaved ``(plain_s, armed_s)`` timings of ``CALLS``
    calls each, the side that runs first alternating."""

    def timed(fn: Callable[[], object]) -> float:
        start = time.perf_counter()
        for _ in range(CALLS):
            fn()
        return time.perf_counter() - start

    timed(plain)  # fill the memos, warm the caches
    timed(armed)
    samples: Samples = []
    for repeat in range(REPEATS):
        if repeat % 2:
            armed_s, plain_s = timed(armed), timed(plain)
        else:
            plain_s, armed_s = timed(plain), timed(armed)
        samples.append((plain_s, armed_s))
    return samples


def _module(rows: list[dict[str, int]], **armed: bool) -> FilterModule:
    table = TableRef()
    eligible = intersection(predicate(table, "load", RelOp.LT, 700),
                            predicate(table, "mem", RelOp.GT, 100))
    module = FilterModule(N, METRICS, Policy(min_of(eligible, "load"),
                                             name="chain"), **armed)
    for rid, metrics in enumerate(rows):
        module.smbm.add(rid, metrics)
    return module


def main() -> int:
    rng = random.Random(0xBEEF)
    rows = [{name: rng.randrange(1000) for name in METRICS} for _ in range(N)]
    plain = _module(rows)
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        # Instruments are captured at construction: the module stays
        # instrumented after the registry stops being the default.
        observed = _module(rows)
    healing = _module(rows, self_healing=True)
    _scrubber = Scrubber(ECCStore(healing.smbm))  # held: armed, never run
    variants = {"observability": observed, "fault machinery": healing,
                "sanitizer": _module(rows, sanitize=True)}
    expected = plain.evaluate()
    for name, module in variants.items():
        if module.evaluate() != expected:
            raise AssertionError(f"{name}: output differs from the plain module")

    # A collection landing in one half of a sub-millisecond pair would read
    # as a phantom overhead.
    gc.collect()
    gc.disable()
    try:
        verdicts = {
            name: verdict(name, time_pairs(plain.evaluate, module.evaluate))
            for name, module in variants.items()
        }
    finally:
        gc.enable()

    print(f"memoized read path, N={N}: median of {REPEATS} paired ratios "
          f"({CALLS} calls per side)")
    for name, (pct, ok) in verdicts.items():
        print(f"  {name:16s} {pct:+6.2f} %   budget < {BUDGETS[name]:g} %"
              f"{'' if ok else '   BLOWN'}")
    return 0 if all(ok for _, ok in verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Work-count guards for the patched MetricIndex (no timing anywhere).

The claim these hold in tier-1: a table write costs a live index one
pending tuple, the read after it costs the ranks moved — never a build —
and a write nobody reads costs nothing once the pending list is full.
Counts come from a live ``MetricsRegistry`` (``smbm_index_rebuilds_total``
= full O(N) builds, ``smbm_index_patches_total`` = moves applied in place)
and, for the write side, from executed-line counts.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro import obs
from repro.core import smbm as smbm_module
from repro.core.operators import RelOp
from repro.core.policy import Policy, TableRef, intersection, min_of, predicate
from repro.core.smbm import PENDING_LIMIT, SMBM
from repro.switch.filter_module import FilterModule

N = 1024
METRICS = ("cpu", "mem", "disk")
#: Reads two of the three metrics: ``cpu`` twice, ``mem`` once.
READS = ("cpu", "mem")


def _policy() -> Policy:
    table = TableRef()
    eligible = intersection(predicate(table, "cpu", RelOp.LT, 800),
                            predicate(table, "mem", RelOp.GT, 10))
    return Policy(min_of(eligible, "cpu"), name="work-count")


def _full_module(rng: random.Random, **kwargs) -> FilterModule:
    module = FilterModule(N, METRICS, _policy(), **kwargs)
    for rid in range(N):
        module.update_resource(rid, {m: rng.randrange(1000) for m in METRICS})
    for metric in METRICS:  # every index live, the unread one included
        module.smbm.metric_index(metric)
    return module


def _work(reg: obs.MetricsRegistry) -> tuple[int, int]:
    return (reg.value_of("smbm_index_rebuilds_total"),
            reg.value_of("smbm_index_patches_total"))


class TestReadSideWork:
    def test_update_then_evaluate_patches_and_never_rebuilds(self, rng):
        k = 25
        with obs.use_registry() as reg:
            module = _full_module(rng)
            module.evaluate()
            rebuilds, patches = _work(reg)
            assert rebuilds == len(METRICS)
            for _ in range(k):
                module.update_resource(
                    rng.randrange(N), {m: rng.randrange(1000) for m in METRICS}
                )
                module.evaluate()
            assert _work(reg) == (rebuilds, patches + k * len(READS))

    def test_unread_burst_costs_one_rebuild_per_metric_read(self, rng):
        with obs.use_registry() as reg:
            module = _full_module(rng)
            module.evaluate()
            indexes = {m: module.smbm.metric_index(m) for m in METRICS}
            rebuilds, patches = _work(reg)
            for _ in range(4 * PENDING_LIMIT):
                module.update_resource(
                    rng.randrange(N), {m: rng.randrange(1000) for m in METRICS}
                )
            # Nothing queued past the limit, and the indexes were let go.
            assert all(len(index.pending) == PENDING_LIMIT
                       for index in indexes.values())
            module.evaluate()
            module.evaluate()
            assert _work(reg) == (rebuilds + len(READS), patches)
            for metric in READS:
                assert module.smbm.metric_index(metric) is not indexes[metric]
            module.smbm.check_invariants()

    def test_codegen_kernel_follows_a_patched_write(self, rng):
        with obs.use_registry() as reg:
            module = _full_module(rng, codegen=True)
            masks = [rng.getrandbits(N) for _ in range(8)] + [(1 << N) - 1]
            for _ in range(10):
                module.update_resource(
                    rng.randrange(N), {m: rng.randrange(1000) for m in METRICS}
                )
                kernel = module.codegen.kernel(module.smbm)
                for mask in masks:
                    expect = module.compiled.evaluate_restricted(
                        module.smbm, mask).value
                    assert kernel(module.smbm.id_mask() & mask) == expect
            rebuilds, patches = _work(reg)
            assert rebuilds == len(METRICS) and patches == 10 * len(READS)
            assert reg.value_of("codegen_specializations_total") == 10


def _lines_executed(fn) -> int:
    """Python lines of ``core/smbm.py`` executed while ``fn()`` runs."""
    count = 0
    path = smbm_module.__file__

    def tracer(frame, event, _arg):
        nonlocal count
        if frame.f_code.co_filename != path:
            return None
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def _table(n: int, live: bool) -> SMBM:
    table = SMBM(n, METRICS)
    for rid in range(n):
        table.add(rid, {m: (rid * 7) % 50 for m in METRICS})
    if live:
        for metric in METRICS:
            table.metric_index(metric)
    return table


class TestWriteSideWork:
    def test_write_without_a_live_index_records_nothing(self, monkeypatch):
        def never(*_args, **_kwargs):
            raise AssertionError("a write recorded a move with no live index")

        unread = _table(64, live=False)
        # Written past the limit and not read since: back to no live index.
        overflowed = _table(64, live=True)
        for i in range(PENDING_LIMIT + 1):
            overflowed.update(i, {m: 99 for m in METRICS})
        monkeypatch.setattr(SMBM, "_record_move", never)
        for table in (unread, overflowed):
            table.update(40, {m: 99 for m in METRICS})
            table.delete(41)
            table.add(41, {m: 1 for m in METRICS})

    @pytest.mark.parametrize("n", [64, N])
    def test_write_with_live_indexes_is_constant_work(self, n):
        """Same executed lines whatever the table size, however far the row
        moves and however many moves are already pending."""
        table = _table(n, live=True)
        costs = [
            _lines_executed(lambda i=i: table.update(
                i, {m: (1000 if i % 2 else -1) for m in METRICS}))
            for i in range(PENDING_LIMIT)
        ]
        assert len(set(costs)) == 1, costs
        small = _table(8, live=True)
        assert costs[0] == _lines_executed(
            lambda: small.update(0, {m: 3 for m in METRICS}))

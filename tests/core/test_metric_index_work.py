"""Work-count guards for the SMBM's per-metric indexes (no timing anywhere).

The claim these hold in tier-1: a committed write patches the index of
every metric somebody has read — never a build, and at most
``ceil(N/B) + 4B`` rewritten mask words, bucket splits and merges included
— and a metric nobody has read has no index to touch.  Counts come from a
live ``MetricsRegistry`` (``smbm_index_rebuilds_total`` = full builds,
``smbm_index_patches_total`` = writes patched into an index) and, for the
words, from object identity: a patched word is a new int object.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import obs
from repro.core import smbm as smbm_module
from repro.core.operators import RelOp
from repro.core.policy import Policy, TableRef, intersection, min_of, predicate
from repro.core.smbm import SMBM, bucket_span
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
    return module


def _work(reg: obs.MetricsRegistry) -> tuple[int, int]:
    return (reg.value_of("smbm_index_rebuilds_total"),
            reg.value_of("smbm_index_patches_total"))


def _random_row(rng: random.Random) -> dict[str, int]:
    return {m: rng.randrange(1000) for m in METRICS}


class TestReadSideWork:
    def test_update_then_evaluate_patches_and_never_rebuilds(self, rng):
        k = 25
        with obs.use_registry() as reg:
            module = _full_module(rng)
            module.evaluate()
            rebuilds, patches = _work(reg)
            assert rebuilds == len(READS)
            for _ in range(k):
                module.update_resource(rng.randrange(N), _random_row(rng))
                module.evaluate()
            assert _work(reg) == (rebuilds, patches + k * len(READS))
            assert module.smbm.metric_index("disk") is not None
            assert _work(reg)[0] == rebuilds + 1  # disk's first read

    def test_unread_burst_is_patched_at_commit(self, rng):
        with obs.use_registry() as reg:
            module = _full_module(rng)
            module.evaluate()
            indexes = {m: module.smbm.metric_index(m) for m in READS}
            rebuilds, patches = _work(reg)
            for _ in range(100):
                module.update_resource(rng.randrange(N), _random_row(rng))
            assert _work(reg) == (rebuilds, patches + 100 * len(READS))
            module.evaluate()
            assert _work(reg) == (rebuilds, patches + 100 * len(READS))
            for metric in READS:
                assert module.smbm.metric_index(metric) is indexes[metric]
            module.smbm.check_invariants()

    def test_codegen_kernel_follows_a_patched_write(self, rng):
        with obs.use_registry() as reg:
            module = _full_module(rng)
            masks = [rng.getrandbits(N) for _ in range(8)] + [(1 << N) - 1]
            for _ in range(10):
                module.update_resource(rng.randrange(N), _random_row(rng))
                kernel = module.codegen.kernel(module.smbm)
                for mask in masks:
                    expect = module.compiled.evaluate_restricted(
                        module.smbm, mask).value
                    assert kernel(module.smbm.id_mask() & mask) == expect
            rebuilds, patches = _work(reg)
            # The first specialisation builds; the nine writes after it patch.
            assert rebuilds == len(READS) and patches == 9 * len(READS)
            assert reg.value_of("codegen_specializations_total") == 10


def _words(index) -> tuple[set[int], list]:
    """Identities of every mask word, and references that keep them alive
    (so no later word can reuse an identity)."""
    words = [word for local in index.local for word in local] + index.below
    return {id(word) for word in words}, words


class TestWriteSideWork:
    def test_write_without_a_live_index_records_nothing(self, monkeypatch, rng):
        def never(*_args):
            raise AssertionError("a write built an index nobody read")

        table = SMBM(64, METRICS)
        monkeypatch.setattr(smbm_module, "_masks", never)
        for rid in range(64):
            table.add(rid, _random_row(rng))
        for _ in range(200):
            table.update(rng.randrange(64), _random_row(rng))
            table.delete(rng.randrange(64))
        table.corrupt_stored_bit(next(iter(table.snapshot())), "cpu", 3)
        table.restore_state(table.export_state())
        assert table._indexes == {}

    @pytest.mark.parametrize("n", [64, 256, N])
    def test_write_rewrites_n_over_b_plus_4b(self, n, rng):
        """A write rewrites at most ``ceil(N/B) + 4B`` mask words.

        Every write kind, from the ends of the ranking and inside ties,
        through bucket splits, merges and borrows; ids stay clear of the
        interpreter's shared small ints, so every patched word is new."""
        span = bucket_span(n)
        bound = math.ceil(n / span) + 4 * span
        table = SMBM(n, ("x", "y"))
        first = 9  # masks of ids >= 9 are all above 256
        for rid in range(first, n):
            table.add(rid, {"x": rng.randrange(50), "y": 0})
        index = table.metric_index("x")
        layouts, worst = set(), 0
        for step in range(1500):
            rid = rng.randrange(first, n)
            value = rng.choice([0, 10**6, rng.randrange(50)])
            before, _alive = _words(index)
            if step % 7 == 0:
                table.delete(rid)
            elif rid in table:
                table.update(rid, {"x": value, "y": 0})
            else:
                table.add(rid, {"x": value, "y": 0})
            words = sum(id(w) not in before for w in _words(index)[1])
            worst = max(worst, words)
            layouts.add(len(index.keys))
            assert words <= bound, (step, words, bound)
        table.check_invariants()
        assert len(layouts) > 2  # the bucket count moved: splits and merges ran
        assert "y" not in table._indexes
        assert worst > 0

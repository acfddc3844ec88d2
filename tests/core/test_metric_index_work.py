"""Work-count guards for the SMBM's read structures (no timing anywhere).

The claim these hold in tier-1: a committed write patches the sorted list
of every metric a select has read and every predicate set somebody has
read — never a build, and at most ``ceil(N/B) + 1`` rewritten boundary
words, bucket splits and merges included, plus one word per set — and
nothing nobody has read is kept to touch: a metric only predicates read
has no sorted list.  Counts come from a live ``MetricsRegistry``
(``smbm_index_rebuilds_total`` = full builds, ``smbm_index_patches_total``
= writes patched into a list or set) and, for the words, from object
identity: a patched word is a new int object.
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
#: The policy selects on ``cpu`` (one sorted list) and holds two
#: predicate sets, one on ``cpu`` and one on ``mem``.
LISTS = ("cpu",)
STRUCTURES = len(LISTS) + 2


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
            assert rebuilds == STRUCTURES
            assert set(module.smbm._indexes) == set(LISTS)
            for _ in range(k):
                module.update_resource(rng.randrange(N), _random_row(rng))
                module.evaluate()
            assert _work(reg) == (rebuilds, patches + k * STRUCTURES)
            assert module.smbm.metric_index("disk") is not None
            assert _work(reg)[0] == rebuilds + 1  # disk's first read

    def test_unread_burst_is_patched_at_commit(self, rng):
        with obs.use_registry() as reg:
            module = _full_module(rng)
            module.evaluate()
            indexes = {m: module.smbm.metric_index(m) for m in LISTS}
            rebuilds, patches = _work(reg)
            for _ in range(100):
                module.update_resource(rng.randrange(N), _random_row(rng))
            assert _work(reg) == (rebuilds, patches + 100 * STRUCTURES)
            module.evaluate()
            assert _work(reg) == (rebuilds, patches + 100 * STRUCTURES)
            for metric in LISTS:
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
            assert rebuilds == STRUCTURES and patches == 9 * STRUCTURES
            assert reg.value_of("codegen_specializations_total") == 10


def _words(table: SMBM) -> tuple[set[int], list]:
    """Identities of every boundary word of ``x`` and every predicate-set
    word, and references that keep them alive (so no later word can reuse
    an identity)."""
    words = table._indexes["x"].below + [ids for _, ids in table._sets.values()]
    return {id(word) for word in words}, words


class TestWriteSideWork:
    def test_write_without_a_live_index_records_nothing(self, monkeypatch, rng):
        def never(*_args):
            raise AssertionError("a write built an index nobody read")

        table = SMBM(64, METRICS)
        monkeypatch.setattr(smbm_module, "_boundaries", never)
        monkeypatch.setattr(SMBM, "_scan", never)
        for rid in range(64):
            table.add(rid, _random_row(rng))
        for _ in range(200):
            table.update(rng.randrange(64), _random_row(rng))
            table.delete(rng.randrange(64))
        table.restore_state(table.export_state())
        assert table._indexes == {} and table._sets == {}

    @pytest.mark.parametrize("n", [64, 256, N])
    def test_write_rewrites_n_over_b_plus_1(self, n, rng):
        """A write rewrites at most ``ceil(N/B) + 1`` boundary words, and
        one word per predicate set.

        Every write kind, from the ends of the ranking and inside ties,
        through bucket splits, merges and borrows; ids stay clear of the
        interpreter's shared small ints, so every patched word is new."""
        span = bucket_span(n)
        table = SMBM(n, ("x", "y"))
        first = 9  # masks of ids >= 9 are all above 256
        for rid in range(first, n):
            table.add(rid, {"x": rng.randrange(50), "y": 0})
        index = table.metric_index("x")
        table.predicate_set("x", RelOp.LT, 25)
        table.predicate_set("y", RelOp.EQ, 0)
        bound = math.ceil(n / span) + 1 + len(table._sets)
        layouts, worst = set(), 0
        for step in range(1500):
            rid = rng.randrange(first, n)
            value = rng.choice([0, 10**6, rng.randrange(50)])
            before, _alive = _words(table)
            if step % 7 == 0:
                table.delete(rid)
            elif rid in table:
                table.update(rid, {"x": value, "y": 0})
            else:
                table.add(rid, {"x": value, "y": 0})
            words = sum(id(w) not in before for w in _words(table)[1])
            worst = max(worst, words)
            layouts.add(len(index.keys))
            assert words <= bound, (step, words, bound)
        table.check_invariants()
        assert len(layouts) > 2  # the bucket count moved: splits and merges ran
        assert "y" not in table._indexes
        assert worst > 0


class TestPredicateSetsFollowThePolicy:
    def test_hot_swaps_keep_only_the_live_policys_sets(self, rng):
        """Fifty hot-swaps, each to new predicate constants, with rows
        served and written between: the table ends holding the live
        policy's two sets and no other, each equal to a fresh scan."""
        module = FilterModule(64, METRICS, _policy())
        for rid in range(64):
            module.update_resource(rid, _random_row(rng))
        module.evaluate()
        for i in range(50):
            table = TableRef()
            module.hot_swap(Policy(min_of(intersection(
                predicate(table, "cpu", RelOp.LT, 500 + i),
                predicate(table, "mem", RelOp.GT, i)), "disk"), name=f"v{i}"))
            module.evaluate()
            module.update_resource(rng.randrange(64), _random_row(rng))
        assert set(module.smbm._sets) == {("cpu", RelOp.LT, 549),
                                          ("mem", RelOp.GT, 49)}
        module.smbm.check_invariants()

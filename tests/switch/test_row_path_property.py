"""One property for the row path: a packet's answer does not depend on
which entry point carried it.

Five twin modules are built identically and driven through the same
sequence of packets, table writes, hot-swaps, wedged Cells and (where
something can absorb it) a dead Cell — each twin through a different door:

* ``masks``   — :meth:`FilterModule.evaluate_masks` on ``[mask]``, the
  selected id and epoch derived as the switch derives them;
* ``packets`` — :meth:`FilterModule.evaluate_batch` on ``[packet]``;
* ``batch``   — :meth:`FilterModule.evaluate_batch` on a prepared
  one-row :class:`PacketBatch`;
* ``eval`` / ``select`` — :meth:`FilterModule.evaluate` / ``select`` for
  unmasked packets (``masks`` for masked ones, which have no other door).

Every step must give the same outcome on all five — output, selected id
and plan epoch, or the same exception type — and account for the packet
exactly once: one ``filter_evaluations_total`` tick when the row routine
served it, one ``filter_batch_path_rows_total{path="engine"}`` row when
the batch engine did.

:func:`serves_like_plain` turns the same doors on the module's options:
whatever combination of them a module is built with, every door serves
what a plain module serves — healthy, and with an active Cell dead
wherever something absorbs the fault.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.operators import RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Conditional,
    Policy,
    TableRef,
    min_of,
    predicate,
    random_pick,
    round_robin,
)
from repro.errors import CompilationError
from repro.faults.injector import FaultInjector
from repro.rmt.packet import Packet
from repro.switch.filter_module import (
    META_FILTER_EPOCH,
    META_FILTER_INPUT,
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    META_FILTER_SELECTED,
    FilterModule,
    PacketBatch,
    selected_id,
)

from tests.engine.test_batch_differential import (
    CAP,
    METRICS,
    VALUE_RANGE,
    _random_stateless_root,
)

DOORS = ("masks", "packets", "batch", "eval", "select")

STATEFUL_ROOTS = (
    lambda: round_robin(TableRef(), "a"),
    lambda: round_robin(predicate(TableRef(), "a", RelOp.LT, 9), "b"),
    lambda: random_pick(TableRef()),
    lambda: Conditional(random_pick(predicate(TableRef(), "b", RelOp.GT, 7)),
                        random_pick(TableRef())),
)

#: Every combination of the mode flags.
FLAGS = tuple(
    {flag: True for flag in combo}
    for size in range(3)
    for combo in itertools.combinations(("self_healing", "sanitize"), size)
)


def _policy(seed: int, stateful: bool, name: str) -> Policy:
    if stateful:
        return Policy(STATEFUL_ROOTS[seed % len(STATEFUL_ROOTS)](), name=name)
    return Policy(_random_stateless_root(random.Random(seed)), name=name)


_metrics = st.fixed_dictionaries(
    {m: st.integers(0, VALUE_RANGE - 1) for m in METRICS})
#: absent / dense / sparse / empty / ids the table lacks or cannot hold.
_mask = st.one_of(
    st.none(),
    st.integers(0, (1 << CAP) - 1),
    st.integers(0, CAP - 1).map(lambda rid: 1 << rid),
    st.just(0),
    st.integers(1, 255).map(lambda bits: bits << (CAP - 4)),
)
_step = st.one_of(
    st.tuples(st.just("packet"), _mask),
    st.tuples(st.just("packet"), _mask),
    st.tuples(st.just("write"), st.integers(0, CAP - 1), _metrics),
    st.tuples(st.just("swap"), st.integers(0, 10_000)),
    st.tuples(st.just("kill")),
    st.tuples(st.just("stick")),
)


def _counts(registry, door: str) -> int:
    """Packets this door's module has accounted for, either way."""
    samples, _ = registry.collect()
    return sum(
        s.value for s in samples
        if ("tenant", door) in s.labels and (
            s.name == "filter_evaluations_total"
            or (s.name == "filter_batch_path_rows_total"
                and ("path", "engine") in s.labels))
    )


def _serve(door: str, module: FilterModule, mask: int | None, all_none: bool):
    """One packet through one door: ``(output, selected, epoch)``."""
    meta = {META_FILTER_REQUEST: 1}
    if mask is not None:
        meta[META_FILTER_INPUT] = mask
    packet = Packet(metadata=meta)
    if door == "batch":
        batch = (PacketBatch(1, input_masks=[mask])
                 if mask is not None or all_none else PacketBatch.uniform(1))
        module.evaluate_batch(batch)
        return batch.outputs[0], batch.selected[0], batch.epochs[0]
    if door == "eval" and mask is None:
        out = module.evaluate().value
        return out, (out.bit_length() - 1 if out.bit_count() == 1 else -1), \
            module.plan_epoch
    if door == "select" and mask is None:
        # select() shows only the singleton; the twins vouch for the rest.
        picked = module.select()
        return None, (-1 if picked is None else picked), module.plan_epoch
    if door != "packets":
        [out] = module.evaluate_masks([mask])
        return out, selected_id(out), module.plan_epoch
    module.evaluate_batch([packet])
    meta = packet.metadata
    return (meta[META_FILTER_OUTPUT], meta[META_FILTER_SELECTED],
            meta[META_FILTER_EPOCH])


def _absorbs_dead_cell(flags) -> bool:
    """A dead Cell is only survivable where the heal guard absorbs it:
    while it is live, every row routine run walks the Cells and meets it."""
    return bool(flags.get("self_healing"))


def _outcome(fn):
    try:
        return ("ok",) + tuple(fn())
    except Exception as exc:  # the twins must fail alike, whatever it is
        return ("raise", type(exc).__name__)


@given(
    seed=st.integers(0, 10_000),
    stateful=st.booleans(),
    flags=st.sampled_from(FLAGS),
    rows=st.lists(st.tuples(st.integers(0, CAP - 1), _metrics), max_size=12),
    steps=st.lists(_step, min_size=1, max_size=12),
    all_none=st.booleans(),
)
@settings(max_examples=120)
def test_every_door_serves_the_same_row(seed, stateful, flags, rows, steps,
                                        all_none):
    with obs.use_registry(obs.MetricsRegistry()) as registry:
        try:
            twins = {
                door: FilterModule(
                    CAP, METRICS, _policy(seed, stateful, "p0"),
                    PipelineParams(), tenant=door, **flags)
                for door in DOORS
            }
        except CompilationError:
            return  # this random DAG does not fit the default pipeline
        for rid, metrics in rows:
            for module in twins.values():
                module.update_resource(rid, metrics)
        absorbs = _absorbs_dead_cell(flags)
        for number, step in enumerate(steps):
            if step[0] == "write":
                for module in twins.values():
                    module.update_resource(step[1], step[2])
            elif step[0] == "swap":
                outcomes = {
                    door: _outcome(lambda m=module: (m.hot_swap(
                        _policy(step[1], stateful, f"p{number + 1}")),))
                    for door, module in twins.items()
                }
                assert len(set(outcomes.values())) == 1, outcomes
            elif step[0] == "stick":
                # Silent: every later row the memo cannot answer walks
                # the wedged Cells, whichever door it came in by.  (The
                # injector's probe walk meets a dead Cell not yet healed.)
                outcomes = {
                    door: _outcome(lambda m=module: (
                        FaultInjector(seed=3).stick_cell(m),))
                    for door, module in twins.items()
                }
                assert len(set(map(repr, outcomes.values()))) == 1, outcomes
            elif step[0] == "kill":
                if absorbs:
                    for module in twins.values():
                        cells = module.compiled.pipeline.active_cells()
                        if cells and cells[0] not in module.cells.routed_around:
                            module.cells.kill(*cells[0])
            else:
                mask = step[1]
                before = {door: _counts(registry, door) for door in DOORS}
                outcomes = {
                    door: _outcome(lambda d=door: _serve(
                        d, twins[d], mask, all_none))
                    for door in DOORS
                }
                want = outcomes["masks"]
                for door, got in outcomes.items():
                    if door == "select" and mask is None and got[0] == "ok":
                        got = got[:1] + want[1:2] + got[2:]
                    assert got == want, (step, outcomes)
                if want[0] == "ok":
                    moved = {door: _counts(registry, door) - before[door]
                             for door in DOORS}
                    assert set(moved.values()) == {1}, (step, moved)


def serves_like_plain(**options) -> None:
    """Twin modules built with ``options``, one per door, against a plain
    module fed the same rows and the same hot-swap: every door serves the
    plain module's output, selected id and epoch on every mask shape —
    healthy, and with the first active Cell dead.  Where nothing absorbs
    the dead Cell the row routine says so (``CellFault`` through ``masks``,
    never a silent answer) and no door serves anything *but* the plain
    rows or that fault."""
    def build(**kwargs) -> FilterModule:
        # Two spare Cell columns, so a slice still has one to heal onto.
        module = FilterModule(CAP, METRICS, policy(), PipelineParams(n=8),
                              **kwargs)
        for rid in range(CAP // 2):
            module.update_resource(rid, {"a": (5 * rid) % VALUE_RANGE,
                                         "b": (3 * rid + 1) % VALUE_RANGE})
        assert module.hot_swap(policy()) == 1
        return module

    def policy() -> Policy:
        return Policy(min_of(predicate(TableRef(), "a", RelOp.LT, 12), "b"),
                      name="p")

    masks = (None, 0b1011_0110_1101, 1 << 3, 0, 0b1111 << (CAP - 2))
    plain = build()
    want = {mask: _outcome(lambda: _serve("masks", plain, mask, False))
            for mask in masks}
    assert {outcome[0] for outcome in want.values()} == {"ok"}
    for dead in (False, True):
        twins = {door: build(**options) for door in DOORS}
        if dead:
            for module in twins.values():
                module.cells.kill(
                    *module.compiled.pipeline.active_cells()[0])
        for mask, door in itertools.product(masks, DOORS):
            got = _outcome(lambda: _serve(door, twins[door], mask, False))
            if door == "select" and mask is None and got[0] == "ok":
                got = got[:1] + want[mask][1:2] + got[2:]
            if not dead or _absorbs_dead_cell(options):
                assert got == want[mask], (dead, door, mask)
            elif door == "masks":
                assert got == ("raise", "CellFault"), (door, mask)
            else:
                assert got in (want[mask], ("raise", "CellFault")), (
                    door, mask)

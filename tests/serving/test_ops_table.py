"""The control-op table: one statement per op, live and replayed.

Every test here runs ops through a live ``Controller`` + WAL, closes it,
and asks ``recover()`` for the same backend back — by ``canonical_bytes``,
so "same" is bit-identical.  Live and replay run the same ``apply`` of
the same table row, which is what these tests hold them to.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.operators import RelOp
from repro.core.policy import Policy, TableRef, min_of, predicate
from repro.errors import CompilationError, IntegrityError, ReproError
from repro.faults import FaultInjector, SimulatedCrash
from repro.serving._atomic import canonical_bytes
from repro.serving.backend import BatchedBackend, ScalarBackend, TableWrite
from repro.serving.controller import Controller
from repro.serving.ops import CONTROL_OPS
from repro.serving.recovery import recover
from repro.serving.wal import CONTROL_OP_KINDS, WriteAheadLog, read_wal
from repro.tenancy.manager import TenantManager, TenantSpec

BACKENDS = pytest.mark.parametrize(
    "cls", [ScalarBackend, BatchedBackend], ids=lambda c: c.name)

POLICIES = {
    "narrow": lambda: Policy(
        predicate(TableRef(), "cpu", RelOp.LT, 10), name="narrow"),
    "wide": lambda: Policy(
        predicate(TableRef(), "cpu", RelOp.LT, 50), name="wide"),
    "min": lambda: Policy(min_of(TableRef(), "cpu"), name="least"),
}


def _backend(cls):
    return cls(TenantManager(("cpu", "mem"), smbm_capacity=16))


def _spec(name: str, policy: str = "narrow") -> TenantSpec:
    return TenantSpec(name, POLICIES[policy](), smbm_quota=4)


def _state(backend) -> bytes:
    return canonical_bytes(backend.snapshot().payload())


def _row(n: int) -> dict[str, int]:
    return {"cpu": n, "mem": n}


def _run(source, wal_path, scenario, hook=None) -> bool:
    """Drive ``scenario(ctl)`` on a logging controller over ``source``;
    True if an armed crash killed it."""

    async def main() -> bool:
        wal = WriteAheadLog(wal_path, crash_hook=hook)
        try:
            async with Controller(source, wal=wal, crash_hook=hook) as ctl:
                await scenario(ctl)
            return False
        except SimulatedCrash:
            return True
        finally:
            wal.close()

    return asyncio.run(main())


# -- a refused swap is refused again --------------------------------------------


@BACKENDS
def test_refused_swap_is_refused_again_on_replay(tmp_path, cls):
    """TH020 refuses a widening swap under allow_semantic_change=False —
    but only after its record is durable.  The flag rides in the record,
    so replay passes the gate the same argument."""
    source = _backend(cls)

    async def scenario(ctl: Controller) -> None:
        await ctl.add_tenant(_spec("t"))
        with pytest.raises(CompilationError) as refused:
            await ctl.hot_swap("t", POLICIES["wide"](),
                               allow_semantic_change=False)
        assert refused.value.rule == "TH020"

    _run(source, tmp_path / "ops.wal", scenario)
    report = recover(tmp_path / "ops.wal", lambda _ckpt: _backend(cls))
    tenant = report.backend.manager.get("t")
    assert (tenant.module.policy.name, tenant.plan_epoch) == ("narrow", 0)
    assert [kind for _, kind, _ in report.errors] == ["hot_swap"]
    assert _state(report.backend) == _state(source)


def test_swap_record_without_the_flag_replays_permissively(tmp_path):
    """A log written before records carried the flag: its swaps passed
    whatever gate they met, and replay as they always did."""
    with WriteAheadLog(tmp_path / "ops.wal") as wal:
        encode = {kind: CONTROL_OPS[kind].encode
                  for kind in ("add_tenant", "hot_swap")}
        wal.append("add_tenant", "t", encode["add_tenant"](_spec("t")))
        swap = encode["hot_swap"]((POLICIES["wide"](), False))
        del swap["allow_semantic_change"]
        wal.append("hot_swap", "t", swap)
        wal.append("shutdown", "__ctl__")
    report = recover(tmp_path / "ops.wal",
                     lambda _ckpt: _backend(ScalarBackend))
    tenant = report.backend.manager.get("t")
    assert not report.errors
    assert (tenant.module.policy.name, tenant.plan_epoch) == ("wide", 1)


# -- a durable cutover always means moved ----------------------------------------


@BACKENDS
@pytest.mark.parametrize("crash_at_abort", [False, True],
                         ids=["clean", "crash-after-abort"])
def test_tripped_cutover_leaves_no_record(tmp_path, cls, crash_at_abort):
    """The gate runs before the record is appended: a cutover it refuses
    is in no log, so the abort and the acked write after it recover —
    'migration didn't happen', never 'tenant lost', across a restart."""
    source, dest = _backend(cls), _backend(cls)
    hook = (FaultInjector(1).arm_crash("ctl.after_apply", at_op=3)
            if crash_at_abort else None)

    async def scenario(ctl: Controller) -> None:
        await ctl.add_tenant(_spec("t"))                        # op 0
        await ctl.update_resource("t", 1, _row(1))              # op 1
        await ctl.begin_migration("t", dest)                    # op 2
        # A write slips past the migration onto the destination only.
        dest.write_batch([TableWrite("t", 2, _row(2))])
        with pytest.raises(IntegrityError):
            await ctl.cutover("t")                              # unlogged
        await ctl.abort_migration("t")                          # op 3
        await ctl.update_resource("t", 3, _row(3))

    crashed = _run(source, tmp_path / "ops.wal", scenario, hook)
    assert crashed == crash_at_abort
    kinds = [r.kind for r in read_wal(tmp_path / "ops.wal").records]
    assert "cutover" not in kinds
    report = recover(tmp_path / "ops.wal", lambda _ckpt: _backend(cls))
    assert not report.errors and report.skipped == 0
    rows = report.backend.manager.get("t").module.smbm.snapshot()
    assert sorted(rows) == ([1] if crash_at_abort else [1, 3])
    assert _state(report.backend) == _state(source)


@BACKENDS
def test_crash_between_cutover_record_and_eviction_rolls_forward(tmp_path,
                                                                 cls):
    source, dest = _backend(cls), _backend(cls)
    # Frames: add_tenant, update, begin_migration, cutover.
    hook = FaultInjector(1).arm_crash("wal.after_append", at_op=3)

    async def scenario(ctl: Controller) -> None:
        await ctl.add_tenant(_spec("t"))
        await ctl.update_resource("t", 1, _row(1))
        await ctl.begin_migration("t", dest)
        await ctl.cutover("t")

    assert _run(source, tmp_path / "ops.wal", scenario, hook)
    # The process died with the record durable and the source untouched...
    assert "t" in source.manager and "t" in dest.manager
    report = recover(tmp_path / "ops.wal", lambda _ckpt: _backend(cls))
    # ...and recovery finishes the move.
    assert report.unclean and not report.errors
    assert "t" not in report.backend.manager


def test_cutover_advances_the_high_water_mark(tmp_path):
    """The record is appended inside the apply, and a checkpoint taken
    after it must still count it as done."""
    source, dest = _backend(ScalarBackend), _backend(ScalarBackend)

    async def scenario(ctl: Controller) -> None:
        await ctl.add_tenant(_spec("t"))
        await ctl.begin_migration("t", dest)
        await ctl.cutover("t")
        await ctl.checkpoint(tmp_path / "switch.ckpt")
        await ctl.update_resource("t", 1, _row(1))  # the destination's

    _run(source, tmp_path / "ops.wal", scenario)
    records = read_wal(tmp_path / "ops.wal").records
    marker = next(r for r in records if r.kind == "checkpoint")
    cutover = next(r for r in records if r.kind == "cutover")
    assert marker.args["hwm"]["t"] == cutover.op_id
    assert marker.args["moved"] == {"t": "scalar"}
    report = recover(tmp_path / "ops.wal",
                     lambda _ckpt: _backend(ScalarBackend))
    # Below the mark, then homed elsewhere: nothing replays, nothing errs.
    assert (report.replayed, report.skipped, report.errors) == (0, 4, [])
    assert _state(report.backend) == _state(source)


# -- a name nobody lives under holds no state ------------------------------------


@BACKENDS
def test_names_nobody_lives_under_hold_no_state(registry, cls):
    backend = _backend(cls)

    def depth_series() -> int:
        return sum(key.startswith("controller_queue_depth")
                   for key in obs.snapshot(registry)["gauges"])

    async def scenario() -> None:
        async with Controller(backend) as ctl:
            await ctl.add_tenant(_spec("keep"))
            for i in range(500):
                with pytest.raises(ReproError):
                    await ctl.update_resource(f"ghost-{i}", 0, _row(0))
            for i in range(50):
                # Pipelined on one queue: the admit keeps it alive for
                # the write behind it.
                await asyncio.gather(
                    ctl.add_tenant(_spec(f"c{i}")),
                    ctl.update_resource(f"c{i}", 1, _row(1)))
                await ctl.remove_tenant(f"c{i}")
            await asyncio.sleep(0)  # let the reaped workers finish
            admitted = len(backend.manager)
            assert admitted == 1
            assert len(ctl._queues) == len(ctl._workers) == admitted
            assert len(asyncio.all_tasks()) - 1 == admitted
            assert depth_series() == admitted

    asyncio.run(scenario())


# -- every kind, any order: recover() == the live source ----------------------------

#: Mostly one name, so a run's admit, begin and cutover tend to meet.
NAMES = st.sampled_from(["a", "a", "a", "b"])
RIDS = st.integers(0, 3)
ROWS = st.builds(_row, st.integers(0, 60))
#: A row that fails the schema check: applied rows before it stay applied.
BAD_ROW = {"cpu": 1}
STEPS = st.one_of(
    st.tuples(st.just("admit"), NAMES, st.sampled_from(sorted(POLICIES))),
    st.tuples(st.just("evict"), NAMES),
    st.tuples(st.just("update"), NAMES, RIDS, ROWS),
    st.tuples(st.just("remove"), NAMES, RIDS),
    st.tuples(st.just("write_batch"), NAMES, st.lists(
        st.tuples(RIDS, st.one_of(ROWS, st.none(), st.just(BAD_ROW))),
        max_size=4)),
    st.tuples(st.just("hot_swap"), NAMES, st.sampled_from(sorted(POLICIES)),
              st.booleans()),
    st.tuples(st.just("bypass"), NAMES, RIDS, ROWS),
    st.tuples(st.just("abort"), NAMES),
    st.tuples(st.just("checkpoint")),
    # Twice each: a move needs both, in order, to go through.
    *[st.tuples(st.just(kind), NAMES) for kind in ("begin", "cutover")] * 2,
)
#: Ops that apply wherever the tenant is homed — on a moved tenant, in
#: the destination's failure domain, where replay cannot see them fail.
HOMED = {"evict", "update", "remove", "write_batch", "hot_swap"}


@pytest.mark.parametrize("src_cls,dst_cls", [
    pytest.param(ScalarBackend, BatchedBackend, id="scalar-to-batched"),
    pytest.param(BatchedBackend, ScalarBackend, id="batched-to-scalar"),
])
@settings(max_examples=60, deadline=None)
@given(steps=st.lists(STEPS, max_size=24).map(
    lambda steps: [("admit", "a", "narrow"), *steps]))
def test_recover_equals_the_live_source_for_any_op_sequence(src_cls, dst_cls,
                                                            steps):
    source = _backend(src_cls)
    dests: dict[str, object] = {}   # tenant -> its latest destination
    moved: set[str] = set()
    errors: list[str] = []          # live error kinds replay must repeat

    async def step(ctl: Controller, tmp: pathlib.Path, kind: str,
                   name: str = "", *rest) -> None:
        if kind == "admit":
            await ctl.add_tenant(_spec(name, rest[0]))
            moved.discard(name)
        elif kind == "evict":
            await ctl.remove_tenant(name)
        elif kind == "update":
            await ctl.update_resource(name, *rest)
        elif kind == "remove":
            await ctl.remove_resource(name, *rest)
        elif kind == "write_batch":
            await ctl.write_batch(
                name, [TableWrite(name, rid, row) for rid, row in rest[0]])
        elif kind == "hot_swap":
            await ctl.hot_swap(name, POLICIES[rest[0]](),
                               allow_semantic_change=rest[1])
        elif kind == "begin":
            # A fresh destination per move: nothing fails there alone.
            dest = _backend(dst_cls)
            await ctl.begin_migration(name, dest)
            dests[name] = dest
        elif kind == "bypass":
            dest = dests.get(name)
            if dest is not None and name in dest.manager:
                dest.write_batch([TableWrite(name, *rest)])
        elif kind == "cutover":
            await ctl.cutover(name)
            moved.add(name)
        elif kind == "abort":
            await ctl.abort_migration(name)
        else:
            await ctl.checkpoint(tmp / "switch.ckpt")
            errors.clear()  # below the mark: skipped, not re-failed

    async def scenario(ctl: Controller) -> None:
        tmp = pathlib.Path(ctl._wal.path).parent
        for kind, *args in steps:
            elsewhere = kind in HOMED and args[0] in moved
            try:
                await step(ctl, tmp, kind, *args)
            except ReproError:
                # A refused cutover is in no log, and an op homed on the
                # destination failed there, not here.
                if kind != "cutover" and not elsewhere:
                    errors.append(kind)

    with tempfile.TemporaryDirectory() as tmp:
        wal_path = pathlib.Path(tmp) / "ops.wal"
        _run(source, wal_path, scenario)
        report = recover(wal_path, lambda _ckpt: _backend(src_cls))
        records = read_wal(wal_path).records

    assert _state(report.backend) == _state(source)
    logged = {"admit": "add_tenant", "evict": "remove_tenant",
              "update": "update_resource", "remove": "remove_resource",
              "begin": "begin_migration", "abort": "abort_migration"}
    assert ([kind for _, kind, _ in report.errors]
            == [logged.get(kind, kind) for kind in errors])
    for record in records:
        op = CONTROL_OPS.get(record.kind)
        if op is not None:
            try:
                again = op.encode(op.decode(record.tenant, record.args))
            except ReproError:
                continue  # a document its own decode refuses
            assert (json.dumps(again, sort_keys=True)
                    == json.dumps(record.args, sort_keys=True))


def test_every_logged_kind_is_a_table_row_and_round_trips():
    """What the TH016 lint audited, asked of the table itself: the kinds
    the WAL accepts are its keys, and each row's codec round-trips."""
    dest = _backend(BatchedBackend)
    payloads = {
        "add_tenant": _spec("t", "min"),
        "remove_tenant": None,
        "hot_swap": (POLICIES["wide"](), False),
        "update_resource": TableWrite("t", 1, _row(1)),
        "remove_resource": TableWrite("t", 1, None),
        "write_batch": [TableWrite("t", 1, _row(1)),
                        TableWrite("t", 2, None)],
        "begin_migration": dest,
        "cutover": None,
        "abort_migration": None,
    }
    assert tuple(payloads) == CONTROL_OP_KINDS == tuple(CONTROL_OPS)
    for kind, payload in payloads.items():
        op = CONTROL_OPS[kind]
        args = json.loads(json.dumps(op.encode(payload)))  # as a log holds it
        assert op.encode(op.decode("t", args)) == args, kind
    assert CONTROL_OPS["hot_swap"].decode(
        "t", CONTROL_OPS["hot_swap"].encode(payloads["hot_swap"]))[1] is False

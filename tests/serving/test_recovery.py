"""Crash recovery: exactly-once replay, checkpoint suffixes, migrations.

Every scenario compares the recovered backend against a *golden twin* —
the same op schedule applied to a controller that never crashed — using
the canonical checkpoint encoding, so "recovered" means bit-identical,
not merely plausible.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import obs
from repro.core.operators import RelOp
from repro.core.policy import Policy, TableRef, min_of, predicate
from repro.errors import CompilationError
from repro.faults import FaultInjector, SimulatedCrash
from repro.serving.backend import BatchedBackend, ScalarBackend, TableWrite
from repro.serving.checkpoint import canonical_bytes
from repro.serving.controller import Controller
from repro.serving.recovery import recover
from repro.serving.wal import WAL_MAGIC, WriteAheadLog, read_wal
from repro.tenancy.manager import TenantManager, TenantSpec
from tests.serving.test_migration import serve_trace, stateful_cases

METRICS = ("cpu", "mem")


def _policy(kind: str = "min") -> Policy:
    table = TableRef()
    if kind == "min":
        return Policy(min_of(table, "cpu"), name="least-loaded")
    return Policy(predicate(table, "cpu", RelOp.LT, 50), name="under")


def _spec(name: str, kind: str = "min", **flags) -> TenantSpec:
    return TenantSpec(name=name, policy=_policy(kind), smbm_quota=8, **flags)


def _backend(cls=ScalarBackend):
    return cls(TenantManager(METRICS, smbm_capacity=16))


def _factory(_ckpt) -> ScalarBackend:
    return _backend()


def _state(backend) -> bytes:
    return canonical_bytes(backend.snapshot().payload())


async def _schedule(ctl: Controller, **flags) -> None:
    """The shared op schedule golden twins and victims both run."""
    await ctl.add_tenant(_spec("a", **flags))
    for i in range(4):
        await ctl.update_resource("a", i, {"cpu": i * 3, "mem": i})
    await ctl.hot_swap("a", _policy("pred"))
    await ctl.add_tenant(_spec("b", "pred", **flags))
    await ctl.update_resource("b", 1, {"cpu": 9, "mem": 2})
    await ctl.remove_resource("a", 2)
    await ctl.remove_tenant("b")


def _run_golden() -> ScalarBackend:
    backend = _backend()

    async def run() -> None:
        async with Controller(backend) as ctl:
            await _schedule(ctl)

    asyncio.run(run())
    return backend


def test_clean_shutdown_replays_bit_identically(tmp_path):
    golden = _run_golden()
    recovered = {}
    # ``TenantSpec.codegen`` is retired: accepted, persisted, ignored.
    for codegen in (False, True):
        backend = _backend()
        path = tmp_path / f"codegen-{codegen}.wal"
        wal = WriteAheadLog(path)

        async def run() -> None:
            async with Controller(backend, wal=wal) as ctl:
                await _schedule(ctl, codegen=codegen)

        asyncio.run(run())
        wal.close()
        assert read_wal(path).records[-1].kind == "shutdown"

        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            report = recover(path, _factory)
            # Clean shutdown: no crash detected.
            assert registry.value_of(
                "faults_detected_total", {"kind": "controller_crash"}
            ) == 0
            assert registry.value_of("wal_records_replayed_total") == 10
        assert not report.unclean and report.torn == 0 and not report.errors
        assert report.replayed == 10 and report.skipped == 0
        assert _state(report.backend) == _state(backend)
        assert [t.spec.codegen for t in report.backend.manager] == [codegen]
        recovered[codegen] = report.backend
    assert _state(recovered[False]) == _state(golden)
    # The flag moves its own persisted key and nothing else.
    without_flag = []
    for backend in recovered.values():
        payload = backend.snapshot().payload()
        for tenant in payload["tenants"]:
            tenant.pop("codegen")
        without_flag.append(canonical_bytes(payload))
    assert without_flag[0] == without_flag[1]


def test_crash_recovers_to_golden_twin_and_is_detected(tmp_path):
    # Golden twin for a crash after the 4th applied op: admit + 3 writes.
    golden = _backend()

    async def run_golden() -> None:
        async with Controller(golden) as ctl:
            await ctl.add_tenant(_spec("a"))
            for i in range(3):
                await ctl.update_resource("a", i, {"cpu": i * 3, "mem": i})

    asyncio.run(run_golden())

    injector = FaultInjector(3)
    hook = injector.arm_crash("ctl.after_apply", at_op=3)
    backend = _backend()
    wal = WriteAheadLog(tmp_path / "ops.wal", crash_hook=hook)

    async def run_victim() -> str:
        ctl = Controller(backend, wal=wal)
        try:
            await _schedule(ctl)
        except SimulatedCrash:
            return "crashed"
        return "survived"

    assert asyncio.run(run_victim()) == "crashed"
    assert injector.injected("controller_crash") == 1

    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        report = recover(tmp_path / "ops.wal", _factory)
        detected = registry.value_of(
            "faults_detected_total", {"kind": "controller_crash"}
        )
    assert detected == 1  # injected == detected parity
    assert report.unclean and not report.errors
    assert report.replayed == 4  # admit + 3 writes, the acked prefix
    assert _state(report.backend) == _state(golden)


# -- the crash sweep over the frames production writes: drained groups -----------------

#: Ops per gathered burst: one client submits them in one loop tick, so
#: the tenant's worker drains and logs the burst as one group frame.
BURST = 16


def _burst_op(tenant: str, burst: int, i: int):
    """Op ``i`` of a burst: mostly updates, some deletes of a row the
    previous op wrote, one multi-write batch."""
    row = {"cpu": (burst * 31 + i * 7) % 97, "mem": burst * BURST + i}
    if i % 5 == 4:
        return lambda ctl: ctl.remove_resource(tenant, (i - 1) % 8)
    if i == 7:
        return lambda ctl: ctl.write_batch(tenant, [
            TableWrite(tenant, 0, row), TableWrite(tenant, 0, None),
            TableWrite(tenant, 1, row)])
    return lambda ctl: ctl.update_resource(tenant, i % 8, row)


#: The schedule as client-visible steps; every op of a step is submitted
#: at once (``asyncio.gather``).  Flattened, it is also the WAL order.
GROUP_STEPS = [
    [lambda ctl: ctl.add_tenant(_spec("a"))],
    [lambda ctl: ctl.add_tenant(_spec("b", "pred"))],
    [_burst_op("a", 0, i) for i in range(BURST)],
    [_burst_op("b", 1, i) for i in range(BURST)],
    [_burst_op("a", 2, i) for i in range(BURST)],
]
GROUP_OPS = [op for step in GROUP_STEPS for op in step]


def _golden_states(cls) -> list[bytes]:
    """``golden[m]``: the switch after exactly the first ``m`` ops, each
    applied on its own by a controller that never crashed or logged."""
    backend = _backend(cls)
    states = [_state(backend)]

    async def run() -> None:
        async with Controller(backend) as ctl:
            for op in GROUP_OPS:
                await op(ctl)
                states.append(_state(backend))

    asyncio.run(run())
    return states


def _run_group_victim(cls, wal_path, hook) -> tuple[set[int], bool]:
    """One controller life over GROUP_STEPS with ``hook`` armed on the
    WAL, which the controller fires its own site through.  Returns
    (acked op indices, crashed)."""
    acked: set[int] = set()

    async def tracked(index: int, ctl: Controller) -> None:
        await GROUP_OPS[index](ctl)
        acked.add(index)

    async def run() -> bool:
        wal = WriteAheadLog(wal_path, crash_hook=hook)
        try:
            async with Controller(_backend(cls), wal=wal) as ctl:
                index = 0
                for step in GROUP_STEPS:
                    results = await asyncio.gather(
                        *(tracked(index + i, ctl)
                          for i in range(len(step))),
                        return_exceptions=True)
                    index += len(step)
                    for result in results:
                        if isinstance(result, SimulatedCrash):
                            raise result
        except SimulatedCrash:  # incl. one on the shutdown marker's frame
            return True
        wal.close()
        return False

    return acked, asyncio.run(run())


def _frame_sizes(wal_path) -> list[int]:
    """Records per frame, in file order."""
    blob = wal_path.read_bytes()
    sizes, offset = [], len(WAL_MAGIC)
    while offset < len(blob):
        length = int.from_bytes(blob[offset:offset + 4], "big")
        sizes.append(len(json.loads(blob[offset + 4:offset + 4 + length])
                         ["kinds"]))
        offset += 4 + length + 8
    return sizes


def _group_layout(cls, tmp_path) -> list[int]:
    """The frame layout of an uncrashed run *with a hook armed* — the
    bytes the sweep below tears are the bytes production writes."""
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        acked, crashed = _run_group_victim(
            cls, tmp_path / "layout.wal", lambda site, record=None: None)
        frames = registry.value_of("wal_frames_total")
        appends = registry.value_of("wal_appends_total")
    assert not crashed and acked == set(range(len(GROUP_OPS)))
    assert appends == len(GROUP_OPS) + 1  # + the shutdown marker
    assert frames < appends  # armed, and still group frames
    sizes = _frame_sizes(tmp_path / "layout.wal")
    # Two admits, three whole bursts, the shutdown marker.
    assert sizes == [1, 1, BURST, BURST, BURST, 1]
    return sizes


def _recover_and_check(cls, wal_path, golden, durable: int, torn: int):
    """Recover; the result must be the golden twin after exactly the
    ``durable`` leading ops of the schedule."""
    report = recover(wal_path, lambda _ckpt: _backend(cls))
    assert report.unclean and report.errors == [] and report.header_ok
    assert report.torn == torn
    assert len(read_wal(wal_path).records) == durable
    assert report.replayed == durable
    assert _state(report.backend) == golden[durable]


@pytest.mark.parametrize("cls", [ScalarBackend, BatchedBackend],
                         ids=lambda c: c.name)
@pytest.mark.parametrize("site", ["wal.before_append", "wal.torn_append",
                                  "wal.after_append"])
def test_crash_at_every_frame_of_a_grouped_log(tmp_path, cls, site):
    """Kill the controller at every frame occurrence of one WAL site.

    Before/mid append the frame never became durable: a torn group
    contributes *zero* records.  After append the whole group is durable
    but none of it was acknowledged: recovery replays all of it.
    """
    golden = _golden_states(cls)
    sizes = _group_layout(cls, tmp_path)
    starts = [sum(sizes[:k]) for k in range(len(sizes))]
    # A crash after the shutdown marker is durable is a clean shutdown.
    occurrences = range(len(sizes) - (site == "wal.after_append"))
    for k in occurrences:
        wal_path = tmp_path / f"crash-{k}.wal"
        hook = FaultInjector(k).arm_crash(site, at_op=k)
        acked, crashed = _run_group_victim(cls, wal_path, hook)
        assert crashed, f"{site}@{k} never fired"
        # Nothing in or after the frame that was being written is acked.
        assert acked == set(range(starts[k])), f"{site}@{k}"
        durable = starts[k] + (sizes[k] if site == "wal.after_append" else 0)
        _recover_and_check(cls, wal_path, golden, durable,
                           torn=int(site == "wal.torn_append"))


@pytest.mark.parametrize("cls", [ScalarBackend, BatchedBackend],
                         ids=lambda c: c.name)
def test_crash_after_apply_inside_a_group_replays_the_whole_group(
        tmp_path, cls):
    """``ctl.after_apply`` on the first/middle/last op of each group:
    the ops before it are acked, and the group's frame is already
    durable, so recovery finishes the never-acked rest of the group."""
    golden = _golden_states(cls)
    sizes = _group_layout(cls, tmp_path)
    for k, size in enumerate(sizes):
        if size == 1:
            continue
        start = sum(sizes[:k])
        for j in (start, start + size // 2, start + size - 1):
            wal_path = tmp_path / f"crash-{j}.wal"
            hook = FaultInjector(j).arm_crash("ctl.after_apply", at_op=j)
            acked, crashed = _run_group_victim(cls, wal_path, hook)
            assert crashed, f"ctl.after_apply@{j} never fired"
            assert acked == set(range(j)), f"ctl.after_apply@{j}"
            _recover_and_check(cls, wal_path, golden, start + size, torn=0)


def test_unreadable_header_is_reported_apart_from_a_torn_first_frame(
        tmp_path):
    path = tmp_path / "ops.wal"
    with WriteAheadLog(path) as wal:
        wal.append("add_tenant", "a", {"spec": {}})
    blob = path.read_bytes()
    # An older-format log: same frames, a magic this build does not read.
    old = WAL_MAGIC.replace(b"v2", b"v1") + blob[len(WAL_MAGIC):]
    path.write_bytes(old)
    report = recover(path, _factory)
    assert (report.header_ok, report.torn, report.replayed) == (False, 1, 0)
    assert report.summary()["header_ok"] is False
    assert path.read_bytes() == old  # recovery reads, never rewrites

    # Damage to the first frame instead: the header is fine.
    path.write_bytes(blob[:-3])
    report = recover(path, _factory)
    assert (report.header_ok, report.torn, report.replayed) == (True, 1, 0)


def _run_with_checkpoint(wal_path) -> None:
    """The shared schedule with a checkpoint after its first five ops."""
    wal = WriteAheadLog(wal_path)

    async def run() -> None:
        async with Controller(_backend(), wal=wal) as ctl:
            await ctl.add_tenant(_spec("a"))
            for i in range(4):
                await ctl.update_resource("a", i, {"cpu": i * 3, "mem": i})
            await ctl.checkpoint()
            await ctl.hot_swap("a", _policy("pred"))
            await ctl.add_tenant(_spec("b", "pred"))
            await ctl.update_resource("b", 1, {"cpu": 9, "mem": 2})
            await ctl.remove_resource("a", 2)
            await ctl.remove_tenant("b")

    asyncio.run(run())
    wal.close()


def test_checkpoint_bounds_replay_to_the_suffix(tmp_path):
    golden = _run_golden()
    _run_with_checkpoint(tmp_path / "ops.wal")
    marker = next(r for r in read_wal(tmp_path / "ops.wal").records
                  if r.kind == "checkpoint")
    assert marker.op_id == 5

    report = recover(tmp_path / "ops.wal", _factory)
    assert report.checkpoint_op_id == marker.op_id
    assert report.restored_tenants == 1
    # The 5 pre-checkpoint ops are inside the restored checkpoint.
    assert report.skipped == 5 and report.replayed == 5
    assert _state(report.backend) == _state(golden)


def test_corrupt_checkpoint_falls_back_to_full_replay(tmp_path):
    """A log cut inside the checkpoint frame: the checkpoint is torn like
    any frame, and the trusted prefix before it replays in full."""
    golden = _backend()

    async def run_golden() -> None:
        async with Controller(golden) as ctl:
            await ctl.add_tenant(_spec("a"))
            for i in range(4):
                await ctl.update_resource("a", i, {"cpu": i * 3, "mem": i})

    asyncio.run(run_golden())
    path = tmp_path / "ops.wal"
    _run_with_checkpoint(path)
    blob = path.read_bytes()
    offset = len(WAL_MAGIC)
    while True:
        length = int.from_bytes(blob[offset:offset + 4], "big")
        if json.loads(blob[offset + 4:offset + 4 + length])["kinds"] == [
                "checkpoint"]:
            break
        offset += 4 + length + 8
    path.write_bytes(blob[:offset + 4 + length // 2])

    report = recover(path, _factory)
    assert report.torn == 1 and report.unclean
    assert report.checkpoint_op_id is None and report.restored_tenants == 0
    assert report.skipped == 0 and report.replayed == 5
    assert _state(report.backend) == _state(golden)


def test_recovery_opens_no_file_but_the_log(tmp_path):
    """Whatever else lives beside the log is not recovery's to touch."""
    _run_with_checkpoint(tmp_path / "ops.wal")
    notes = tmp_path / "notes.tmp"
    notes.write_text("an operator's notes")
    before = sorted(tmp_path.iterdir())
    report = recover(tmp_path / "ops.wal", _factory)
    assert report.restored_tenants == 1
    assert sorted(tmp_path.iterdir()) == before
    assert notes.read_text() == "an operator's notes"


def test_recovery_is_idempotent(tmp_path):
    backend = _backend()
    wal = WriteAheadLog(tmp_path / "ops.wal")

    async def run() -> None:
        async with Controller(backend, wal=wal) as ctl:
            await _schedule(ctl)

    asyncio.run(run())
    wal.close()
    first = recover(tmp_path / "ops.wal", _factory)
    second = recover(tmp_path / "ops.wal", _factory)
    assert _state(first.backend) == _state(second.backend)
    assert (first.replayed, first.skipped) == (second.replayed,
                                               second.skipped)


def test_torn_tail_is_truncated_and_counted(tmp_path):
    backend = _backend()
    wal = WriteAheadLog(tmp_path / "ops.wal")

    async def run() -> None:
        async with Controller(backend, wal=wal) as ctl:
            await ctl.add_tenant(_spec("a"))
            await ctl.update_resource("a", 1, {"cpu": 5, "mem": 6})

    asyncio.run(run())
    wal.close()
    with open(tmp_path / "ops.wal", "ab") as fh:
        fh.write(b"\x00\x00\x01\x00torn-half-frame")

    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        report = recover(tmp_path / "ops.wal", _factory)
        assert registry.value_of("wal_torn_records_total") == 1
    assert report.torn == 1
    # The shutdown marker is still the last *trusted* record, so the
    # torn garbage does not masquerade as a crash.
    assert not report.unclean
    assert report.replayed == 2
    assert sorted(t.name for t in report.backend.manager) == ["a"]


def test_migration_cutover_rolls_forward_on_the_source(tmp_path):
    """A logged cutover is the commit point: recovery evicts the tenant
    from the source and skips later writes addressed to it."""
    source = _backend()
    dest = _backend()
    wal = WriteAheadLog(tmp_path / "ops.wal")

    async def run() -> None:
        async with Controller(source, wal=wal) as ctl:
            await ctl.add_tenant(_spec("m"))
            await ctl.update_resource("m", 1, {"cpu": 1, "mem": 1})
            await ctl.add_tenant(_spec("keep", "pred"))
            await ctl.begin_migration("m", dest)
            await ctl.update_resource("m", 2, {"cpu": 2, "mem": 2})
            await ctl.cutover("m")
            # Post-cutover writes land on the destination; replay on the
            # source must skip them.
            await ctl.update_resource("m", 3, {"cpu": 3, "mem": 3})
            await ctl.update_resource("keep", 1, {"cpu": 7, "mem": 7})

    asyncio.run(run())
    wal.close()

    report = recover(tmp_path / "ops.wal", _factory)
    assert not report.errors
    assert sorted(t.name for t in report.backend.manager) == ["keep"]
    assert _state(report.backend) == _state(source)
    # And the destination really does hold the moved tenant's writes.
    assert sorted(dest.manager.get("m").module.smbm.snapshot()) == [1, 2, 3]


@pytest.mark.parametrize("cls", [ScalarBackend, BatchedBackend],
                         ids=lambda c: c.name)
def test_ops_that_followed_a_moving_tenant_replay_on_the_source(tmp_path,
                                                                cls):
    """One log holding a hot-swap during dual-running, a hot-swap and an
    evict after the cutover, a re-admission of the moved name and an
    evict during dual-running: the recovered source is the live source,
    and only the ops that applied in the destination's domain are
    skipped."""
    source, dest = _backend(cls), _backend(cls)
    wal = WriteAheadLog(tmp_path / "ops.wal")

    async def run() -> None:
        async with Controller(source, wal=wal) as ctl:
            await ctl.add_tenant(_spec("m"))
            await ctl.update_resource("m", 1, {"cpu": 1, "mem": 1})
            await ctl.begin_migration("m", dest)
            await ctl.hot_swap("m", _policy("pred"))  # both instances
            await ctl.update_resource("m", 2, {"cpu": 2, "mem": 2})
            assert (await ctl.cutover("m"))["plan_epoch"] == 1
            await ctl.hot_swap("m", _policy())  # the destination's...
            await ctl.update_resource("m", 3, {"cpu": 3, "mem": 3})
            assert dest.manager.get("m").plan_epoch == 2
            await ctl.remove_tenant("m")  # ...all three of them
            assert "m" not in dest.manager
            await ctl.add_tenant(_spec("m", "pred"))  # home again
            await ctl.update_resource("m", 4, {"cpu": 4, "mem": 4})
            await ctl.hot_swap("m", _policy())
            await ctl.add_tenant(_spec("gone"))
            await ctl.begin_migration("gone", dest)
            await ctl.remove_tenant("gone")  # evicted from both
            assert len(dest.manager) == 0

    asyncio.run(run())
    wal.close()

    report = recover(tmp_path / "ops.wal", lambda _ckpt: _backend(cls))
    assert not report.errors
    assert (report.replayed, report.skipped) == (12, 3)
    assert _state(report.backend) == _state(source)
    home = report.backend.manager.get("m")
    assert sorted(home.module.smbm.snapshot()) == [4]
    assert home.plan_epoch == 1


@pytest.mark.parametrize("policy", [_policy, *stateful_cases(
    marks=pytest.mark.xfail(strict=True, reason=(
        "packets served after the last logged op are in no WAL record, "
        "so the recovered units restart from the seed")))])
def test_recovered_tenant_continues_the_live_trace(tmp_path, policy):
    """The golden twin at trace level: the live backend that never died
    and its recovered copy serve the same next packets."""
    live = _backend()
    wal = WriteAheadLog(tmp_path / "ops.wal")

    async def run() -> None:
        async with Controller(live, wal=wal) as ctl:
            await ctl.add_tenant(TenantSpec("a", policy(), smbm_quota=8))
            for i in range(5):
                await ctl.update_resource("a", i, {"cpu": i + 1, "mem": i})

    asyncio.run(run())
    wal.close()
    serve_trace(live, "a", 3)  # served packets are in no log
    report = recover(tmp_path / "ops.wal", _factory)
    assert _state(report.backend) == _state(live)
    assert serve_trace(report.backend, "a", 5) == serve_trace(live, "a", 5)


def test_migration_without_cutover_rolls_back_on_the_source(tmp_path):
    """No cutover record means the move never committed: the tenant
    keeps serving on the recovered source with every write intact."""
    source = _backend()
    dest = _backend()
    wal = WriteAheadLog(tmp_path / "ops.wal")

    async def run() -> None:
        async with Controller(source, wal=wal) as ctl:
            await ctl.add_tenant(_spec("m"))
            await ctl.update_resource("m", 1, {"cpu": 1, "mem": 1})
            await ctl.begin_migration("m", dest)
            await ctl.update_resource("m", 2, {"cpu": 2, "mem": 2})
            await ctl.abort_migration("m")
            await ctl.update_resource("m", 3, {"cpu": 3, "mem": 3})

    asyncio.run(run())
    wal.close()

    report = recover(tmp_path / "ops.wal", _factory)
    assert not report.errors
    assert sorted(t.name for t in report.backend.manager) == ["m"]
    assert sorted(
        report.backend.manager.get("m").module.smbm.snapshot()
    ) == [1, 2, 3]
    assert _state(report.backend) == _state(source)


def test_replay_errors_are_counted_not_fatal(tmp_path):
    """A deterministic apply failure (op that failed pre-crash too) is
    recorded and skipped; everything after it still recovers — also when
    the poisoned op is a policy document far deeper than the
    interpreter's recursion limit, which must fail typed both times."""
    backend = _backend()
    wal = WriteAheadLog(tmp_path / "ops.wal")
    node = TableRef()
    for _ in range(2000):
        node = min_of(node, "cpu")

    async def run() -> None:
        async with Controller(backend, wal=wal) as ctl:
            await ctl.add_tenant(_spec("a"))
            with pytest.raises(Exception):
                # Write to a tenant that was never admitted: logged,
                # then fails apply — deterministically, both times.
                await ctl.update_resource("ghost", 0, {"cpu": 0, "mem": 0})
            with pytest.raises(CompilationError) as exc_info:
                await ctl.hot_swap("a", Policy(node, name="chain"))
            assert exc_info.value.rule == "TH009"
            await ctl.update_resource("a", 1, {"cpu": 5, "mem": 6})

    asyncio.run(run())
    wal.close()

    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        report = recover(tmp_path / "ops.wal", _factory)
        assert registry.value_of("wal_replay_errors_total") == 2
    assert [kind for _, kind, _ in report.errors] == [
        "update_resource", "hot_swap",
    ]
    assert report.replayed == 2
    assert _state(report.backend) == _state(backend)

"""Live migration: zero loss, conservation gates, golden-twin traces.

The acceptance scenario: a tenant moves between two switch instances
(across *different* backend kinds) under continuous writes and traffic.
A golden twin — a solo FilterModule fed the identical write/evaluate
schedule, never migrated — defines the bit-identical trace the migrating
tenant must produce end to end: no packet lost, no write dropped, no
output changed by the move.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.conformance import verify_checkpoint_roundtrip
from repro.core.operators import RelOp
from repro.core.policy import (
    Policy,
    TableRef,
    intersection,
    min_of,
    predicate,
    random_pick,
    round_robin,
)
from repro.engine.batch import META_FILTER_OUTPUT, META_FILTER_REQUEST
from repro.errors import ConfigurationError, IntegrityError
from repro.rmt.packet import META_TENANT, Packet
from repro.serving.backend import BatchedBackend, ScalarBackend, TableWrite
from repro.serving.controller import Controller
from repro.serving.migration import LiveMigration, MigrationState
from repro.switch.filter_module import FilterModule
from repro.tenancy.manager import TenantManager, TenantSpec

METRICS = ("cpu", "mem")


def _policy() -> Policy:
    table = TableRef()
    return Policy(
        min_of(intersection(predicate(table, "cpu", RelOp.LT, 90),
                            predicate(table, "mem", RelOp.GT, 1)), "cpu"),
        name="eligible-least-cpu",
    )


def _weighted_rr() -> Policy:
    return Policy(round_robin(TableRef(), "cpu"), name="weighted-rr")


def _random_pick() -> Policy:
    return Policy(random_pick(TableRef()), name="random-pick")


def stateful_cases(*fixed, marks=()):
    """The two stateful cases, each after the ``fixed`` leading values.
    A tenant's unit state is its payload's ``units`` key, so a moved or
    restored copy continues the stream its source would have served (a
    weighted round-robin that served 0,1,2 continues 2,3,3,3,4 on
    both)."""
    return [pytest.param(*fixed, make, id=make().name, marks=marks)
            for make in (_weighted_rr, _random_pick)]


STATEFUL_CASES = stateful_cases()


def _backend(cls):
    return cls(TenantManager(METRICS, smbm_capacity=16))


def _admit(backend, name="t", policy=_policy):
    backend.program_tenant(TenantSpec(name, policy(), smbm_quota=8))


def serve_trace(backend, name="t", count=1) -> list[int]:
    """Serve ``count`` full-table requests; the filter outputs in order."""
    packets = [Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: name})
               for _ in range(count)]
    backend.process_batch(packets)
    return [packet.metadata[META_FILTER_OUTPUT] for packet in packets]


def _serve(backend, name="t"):
    return serve_trace(backend, name)[0]


def _schedule(rounds=30):
    steps = []
    for i in range(rounds):
        steps.append(("write", i % 6, {"cpu": (i * 17) % 100,
                                       "mem": (i * 5) % 40}))
        steps.append(("serve",))
    return steps


@pytest.mark.parametrize("src_cls,dst_cls,policy", [
    pytest.param(ScalarBackend, BatchedBackend, _policy,
                 id="scalar-to-batched"),
    pytest.param(BatchedBackend, ScalarBackend, _policy,
                 id="batched-to-scalar"),
    *stateful_cases(ScalarBackend, BatchedBackend),
])
def test_migration_is_zero_loss_against_golden_twin(src_cls, dst_cls, policy,
                                                    registry):
    steps = _schedule(30)
    # The golden twin: same schedule, no migration, solo module.
    twin = FilterModule(8, METRICS, policy())
    golden = []
    for step in steps:
        if step[0] == "write":
            twin.update_resource(step[1], step[2])
        else:
            golden.append(twin.evaluate().value)

    src = _backend(src_cls)
    dst = _backend(dst_cls)
    _admit(src, policy=policy)
    migration = LiveMigration(src, dst, "t")
    trace = []
    third = len(steps) // 3
    for i, step in enumerate(steps):
        if i == third:
            migration.begin()  # enter dual-running a third of the way in
        if i == 2 * third:
            stats = migration.cutover()  # flip on a version boundary
        serving = dst if migration.state is MigrationState.COMPLETE else src
        if step[0] == "write":
            if migration.state is MigrationState.DUAL_RUNNING:
                migration.write_batch([TableWrite("t", step[1], step[2])])
            else:
                serving.write_batch([TableWrite("t", step[1], step[2])])
        else:
            trace.append(_serve(serving))

    assert migration.state is MigrationState.COMPLETE
    assert trace == golden  # bit-identical: the move was invisible
    assert stats["dual_writes"] == migration.dual_writes > 0
    assert "t" not in src.manager  # source slice returned to the pool
    assert "t" in dst.manager
    assert registry.value_of(
        "tenant_migrations_total", {"outcome": "complete"}) == 1
    assert registry.value_of(
        "tenant_migrations_total", {"outcome": "aborted"}) == 0


def test_cutover_gate_catches_bypassed_writes():
    src, dst = _backend(ScalarBackend), _backend(BatchedBackend)
    _admit(src)
    src.write_batch([TableWrite("t", 1, {"cpu": 5, "mem": 5})])
    migration = LiveMigration(src, dst, "t")
    migration.begin()
    # A write sneaks around the dual-running gate onto the source only.
    src.write_batch([TableWrite("t", 2, {"cpu": 7, "mem": 7})])
    with pytest.raises(IntegrityError, match="version") as exc:
        migration.cutover()
    # One error, every divergent facet of the one comparison.
    for facet in ("version counter", "stored rows", "missing=[2]",
                  "FIFO sequence allocator", "FIFO enqueue order"):
        assert facet in str(exc.value)
    # The gate holds the migration open: nothing was torn down.
    assert migration.state is MigrationState.DUAL_RUNNING
    assert "t" in src.manager and "t" in dst.manager
    # Re-converge through the gate and the cutover goes through.
    dst.write_batch([TableWrite("t", 2, {"cpu": 7, "mem": 7})])
    assert migration.cutover()["cutover_version"] > 0


def test_cutover_gate_catches_one_sided_hot_swap():
    src, dst = _backend(ScalarBackend), _backend(ScalarBackend)
    _admit(src)
    migration = LiveMigration(src, dst, "t")
    migration.begin()
    src.hot_swap("t", Policy(min_of(TableRef(), "mem"), name="other"))
    with pytest.raises(IntegrityError, match="epoch") as exc:
        migration.cutover()
    assert "'policy' diverges" in str(exc.value)


@pytest.mark.parametrize("side", ["source", "dest"])
def test_cutover_gate_covers_payload_keys_it_has_never_heard_of(side,
                                                                registry):
    """A tenant's state is its checkpoint payload: a key only one side
    carries (or carries differently) trips the gate by being there."""

    class Extended(ScalarBackend):
        units = {"rr_pointer": 3}

        def snapshot_tenant(self, name):
            ckpt = super().snapshot_tenant(name)
            return dataclasses.replace(
                ckpt, spec={**ckpt.spec, "unit_state": self.units})

    src = _backend(Extended if side == "source" else ScalarBackend)
    dst = _backend(Extended if side == "dest" else ScalarBackend)
    _admit(src)
    migration = LiveMigration(src, dst, "t")
    migration.begin()
    with pytest.raises(IntegrityError, match="'unit_state' diverges"):
        migration.cutover()
    assert migration.state is MigrationState.DUAL_RUNNING
    assert registry.value_of(
        "faults_detected_total", {"kind": "migration_divergence"}) == 1
    # Both sides carrying it: equal passes, different trips.
    both_src, both_dst = _backend(Extended), _backend(Extended)
    _admit(both_src)
    both = LiveMigration(both_src, both_dst, "t")
    both.begin()
    both_dst.units = {"rr_pointer": 4}
    with pytest.raises(IntegrityError, match="'unit_state' diverges"):
        both.cutover()
    both_dst.units = Extended.units
    assert both.cutover()["tenant"] == "t"


def test_abort_returns_destination_slice(registry):
    src, dst = _backend(ScalarBackend), _backend(BatchedBackend)
    _admit(src)
    migration = LiveMigration(src, dst, "t")
    migration.begin()
    migration.write_batch([TableWrite("t", 1, {"cpu": 1, "mem": 1})])
    migration.abort()
    assert migration.state is MigrationState.ABORTED
    assert "t" in src.manager  # source untouched, still serving
    assert "t" not in dst.manager
    assert len(dst.manager.free_columns) == 2
    assert registry.value_of(
        "tenant_migrations_total", {"outcome": "aborted"}) == 1
    assert registry.value_of(
        "tenant_migrations_total", {"outcome": "complete"}) == 0


def test_migration_state_machine_is_single_use():
    src, dst = _backend(ScalarBackend), _backend(BatchedBackend)
    _admit(src)
    migration = LiveMigration(src, dst, "t")
    with pytest.raises(ConfigurationError):
        migration.write_batch(
            [TableWrite("t", 1, {"cpu": 1, "mem": 1})])  # before begin
    with pytest.raises(ConfigurationError):
        migration.cutover()
    migration.begin()
    with pytest.raises(ConfigurationError):
        migration.begin()  # already dual-running
    migration.cutover()
    for op in (migration.begin, migration.cutover, migration.abort):
        with pytest.raises(ConfigurationError):
            op()
    with pytest.raises(ConfigurationError):
        LiveMigration(src, src, "t")  # needs two instances


def test_controller_migrates_under_concurrent_writes():
    """The end-to-end control-plane path: a client streams writes while
    another migrates the tenant; zero control ops dropped, post-cutover
    table equals a twin that saw every write."""
    src, dst = _backend(ScalarBackend), _backend(BatchedBackend)
    applied = []

    async def writer(ctl: Controller) -> None:
        for i in range(30):
            metrics = {"cpu": (i * 11) % 80, "mem": i % 30}
            await ctl.update_resource("t", i % 5, metrics)
            applied.append((i % 5, metrics))
            await asyncio.sleep(0)

    async def mover(ctl: Controller) -> dict:
        await asyncio.sleep(0)  # let some writes land first
        await ctl.begin_migration("t", dst)
        for _ in range(5):
            await asyncio.sleep(0)  # dual-running while writes continue
        return await ctl.cutover("t")

    async def scenario():
        async with Controller(src) as ctl:
            await ctl.add_tenant(TenantSpec("t", _policy(), smbm_quota=8))
            _, stats = await asyncio.gather(writer(ctl), mover(ctl))
            return stats

    stats = asyncio.run(scenario())
    assert stats["tenant"] == "t"
    assert stats["dual_writes"] > 0
    assert "t" not in src.manager and "t" in dst.manager
    # Conservation: the destination table equals a twin that saw every
    # write exactly once, in order — nothing dropped across the move.
    twin = FilterModule(8, METRICS, _policy())
    for rid, metrics in applied:
        twin.update_resource(rid, metrics)
    dst_smbm = dst.manager.get("t").module.smbm
    assert dst_smbm.snapshot() == twin.smbm.snapshot()
    assert len(applied) == 30


def _swapped() -> Policy:
    return Policy(min_of(TableRef(), "mem"), name="least-mem")


def _drive(src, scenario):
    """Run ``scenario(ctl)`` on a Controller over ``src``, with ``t``
    admitted and one row written."""

    async def run():
        async with Controller(src) as ctl:
            await ctl.add_tenant(TenantSpec("t", _policy(), smbm_quota=8))
            await ctl.update_resource("t", 1, {"cpu": 5, "mem": 5})
            return await scenario(ctl)

    return asyncio.run(run())


def test_controller_hot_swap_while_dual_running_lands_on_both():
    """An acked hot-swap during dual-running is on both instances, so the
    cutover that follows finds equal epochs and goes through."""
    src, dst = _backend(ScalarBackend), _backend(BatchedBackend)

    async def scenario(ctl):
        await ctl.begin_migration("t", dst)
        assert await ctl.hot_swap("t", _swapped()) == 1
        for backend in (src, dst):
            module = backend.manager.get("t").module
            assert (module.plan_epoch, module.policy.name) == (1, "least-mem")
        return await ctl.cutover("t")

    assert _drive(src, scenario)["plan_epoch"] == 1
    assert "t" not in src.manager
    assert dst.manager.get("t").module.plan_epoch == 1


def test_controller_ops_follow_a_cut_over_tenant():
    """After the cutover every per-tenant op — not just table writes —
    reaches the destination."""
    src, dst = _backend(ScalarBackend), _backend(BatchedBackend)

    async def scenario(ctl):
        await ctl.begin_migration("t", dst)
        await ctl.cutover("t")
        await ctl.update_resource("t", 2, {"cpu": 6, "mem": 6})
        assert await ctl.hot_swap("t", _swapped()) == 1
        module = dst.manager.get("t").module
        assert sorted(module.smbm.snapshot()) == [1, 2]
        assert module.policy.name == "least-mem"
        await ctl.remove_tenant("t")
        assert "t" not in dst.manager
        with pytest.raises(ConfigurationError, match="no admitted tenant"):
            await ctl.update_resource("t", 3, {"cpu": 7, "mem": 7})

    _drive(src, scenario)


def test_readmitted_name_is_homed_on_the_source_again():
    src, dst = _backend(ScalarBackend), _backend(BatchedBackend)

    async def scenario(ctl):
        await ctl.begin_migration("t", dst)
        await ctl.cutover("t")
        await ctl.add_tenant(TenantSpec("t", _swapped(), smbm_quota=8))
        await ctl.update_resource("t", 4, {"cpu": 8, "mem": 8})
        await ctl.hot_swap("t", _policy())

    _drive(src, scenario)
    home = src.manager.get("t").module
    assert sorted(home.smbm.snapshot()) == [4] and home.plan_epoch == 1
    # The moved tenant is the destination's: untouched by the new stream.
    moved = dst.manager.get("t").module
    assert sorted(moved.smbm.snapshot()) == [1] and moved.plan_epoch == 0


def test_controller_evict_while_dual_running_leaves_no_orphan(registry):
    src, dst = _backend(ScalarBackend), _backend(BatchedBackend)

    async def scenario(ctl):
        migration = await ctl.begin_migration("t", dst)
        await ctl.remove_tenant("t")
        assert migration.state is MigrationState.ABORTED
        with pytest.raises(ConfigurationError, match="aborted"):
            await ctl.cutover("t")
        # The name is free: admitted again it lives on the source alone.
        await ctl.add_tenant(TenantSpec("t", _policy(), smbm_quota=8))
        await ctl.update_resource("t", 2, {"cpu": 1, "mem": 1})

    _drive(src, scenario)
    assert "t" not in dst.manager and len(dst.manager.free_columns) == 2
    assert sorted(src.manager.get("t").module.smbm.snapshot()) == [2]
    assert registry.value_of(
        "tenant_migrations_total", {"outcome": "aborted"}) == 1


def test_migration_refuses_ops_on_another_tenant():
    src, dst = _backend(ScalarBackend), _backend(BatchedBackend)
    _admit(src)
    _admit(src, "other")
    migration = LiveMigration(src, dst, "t")
    migration.begin()
    for op in (
        lambda: migration.write_batch(
            [TableWrite("other", 1, {"cpu": 1, "mem": 1})]),
        lambda: migration.hot_swap("other", _swapped()),
        lambda: migration.unprogram_tenant("other"),
    ):
        with pytest.raises(ConfigurationError, match="moves 't'"):
            op()
    assert len(src.manager.get("other").module.smbm) == 0
    assert migration.cutover()["dual_writes"] == 0


# -- the seed of ROADMAP item 7's machine: one predicate, asked after every step -------

_ROW = st.fixed_dictionaries({"cpu": st.integers(0, 99),
                              "mem": st.integers(0, 39)})
_OPS = st.one_of(
    st.tuples(st.just("update"), st.integers(0, 7), _ROW),
    st.tuples(st.just("remove"), st.integers(0, 7)),
    st.tuples(st.just("batch"),
              st.lists(st.tuples(st.integers(0, 7), st.none() | _ROW),
                       max_size=3)),
    st.tuples(st.just("swap"), st.sampled_from([_policy, _swapped])),
)


async def _apply(ctl: Controller, op) -> None:
    if op[0] == "update":
        await ctl.update_resource("t", op[1], op[2])
    elif op[0] == "remove":
        await ctl.remove_resource("t", op[1])
    elif op[0] == "batch":
        await ctl.write_batch(
            "t", [TableWrite("t", rid, row) for rid, row in op[1]])
    else:
        await ctl.hot_swap("t", op[1]())


@pytest.mark.parametrize(
    "src_cls,dst_cls",
    [(ScalarBackend, BatchedBackend), (BatchedBackend, ScalarBackend)],
    ids=("scalar-to-batched", "batched-to-scalar"),
)
@settings(max_examples=50)
@given(ops=st.lists(_OPS, min_size=3, max_size=24), data=st.data())
def test_any_interleaving_stays_th015_clean_against_an_unmoved_twin(
        src_cls, dst_cls, ops, data):
    """Random update / remove / write_batch / hot_swap streams through
    ``Controller`` while the tenant goes IDLE -> DUAL_RUNNING -> COMPLETE:
    after every step, wherever the tenant lives equals a twin that never
    moved — by TH015, the one "same state?" predicate."""
    begin_at = data.draw(st.integers(0, len(ops) - 1), label="begin_at")
    cutover_at = data.draw(st.integers(begin_at, len(ops)), label="cutover_at")
    src, dst, twin = _backend(src_cls), _backend(dst_cls), _backend(src_cls)

    async def run() -> None:
        async with Controller(src) as ctl, Controller(twin) as ref:
            for c in (ctl, ref):
                await c.add_tenant(TenantSpec("t", _policy(), smbm_quota=8))
            homes = [src]
            for i, op in enumerate([*ops, None]):
                if i == begin_at:
                    await ctl.begin_migration("t", dst)
                    homes = [src, dst]
                if i == cutover_at:
                    await ctl.cutover("t")
                    homes = [dst]
                if op is not None:
                    # A delete of an absent row fails the same way on
                    # every side and changes nothing.
                    results = await asyncio.gather(
                        _apply(ctl, op), _apply(ref, op),
                        return_exceptions=True)
                    assert type(results[0]) is type(results[1])
                for home in homes:
                    report = verify_checkpoint_roundtrip(twin, home, "t")
                    assert report.clean, report.describe()
            assert "t" not in src.manager

    asyncio.run(run())


def test_post_migration_serving_caches_rebuild():
    """The restored module must not serve stale results: the restore
    draws a fresh table stamp, so the memo and the kernel both miss and
    rebuild against the restored table."""
    src, dst = _backend(ScalarBackend), _backend(ScalarBackend)
    _admit(src)
    src.write_batch([TableWrite("t", 1, {"cpu": 10, "mem": 10}),
                     TableWrite("t", 2, {"cpu": 2, "mem": 20})])
    before = _serve(src)
    migration = LiveMigration(src, dst, "t")
    migration.begin()
    migration.cutover()
    assert _serve(dst) == before
    # Warm memo on the destination, then a write invalidates it.
    dst.write_batch([TableWrite("t", 3, {"cpu": 1, "mem": 30})])
    assert _serve(dst) != 0

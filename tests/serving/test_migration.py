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

import pytest

from repro.core.operators import RelOp
from repro.core.policy import Policy, TableRef, intersection, min_of, predicate
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


def _backend(cls):
    return cls(TenantManager(METRICS, smbm_capacity=16))


def _admit(backend, name="t"):
    backend.program_tenant(TenantSpec(name, _policy(), smbm_quota=8))


def _serve(backend, name="t"):
    packet = Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: name})
    backend.process_batch([packet])
    return packet.metadata[META_FILTER_OUTPUT]


def _schedule(rounds=30):
    steps = []
    for i in range(rounds):
        steps.append(("write", i % 6, {"cpu": (i * 17) % 100,
                                       "mem": (i * 5) % 40}))
        steps.append(("serve",))
    return steps


@pytest.mark.parametrize(
    "src_cls,dst_cls",
    [(ScalarBackend, BatchedBackend), (BatchedBackend, ScalarBackend)],
    ids=("scalar-to-batched", "batched-to-scalar"),
)
def test_migration_is_zero_loss_against_golden_twin(src_cls, dst_cls,
                                                    registry):
    steps = _schedule(30)
    # The golden twin: same schedule, no migration, solo module.
    twin = FilterModule(8, METRICS, _policy())
    golden = []
    for step in steps:
        if step[0] == "write":
            twin.update_resource(step[1], step[2])
        else:
            golden.append(twin.evaluate().value)

    src = _backend(src_cls)
    dst = _backend(dst_cls)
    _admit(src)
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
                migration.apply_write(step[1], step[2])
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
    with pytest.raises(IntegrityError, match="version"):
        migration.cutover()
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
    with pytest.raises(IntegrityError, match="epoch"):
        migration.cutover()


def test_abort_returns_destination_slice(registry):
    src, dst = _backend(ScalarBackend), _backend(BatchedBackend)
    _admit(src)
    migration = LiveMigration(src, dst, "t")
    migration.begin()
    migration.apply_write(1, {"cpu": 1, "mem": 1})
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
        migration.apply_write(1, {"cpu": 1, "mem": 1})  # before begin
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


def test_post_migration_serving_caches_rebuild():
    """The restored module must not serve stale version-keyed results:
    memo/batch/codegen caches reset across restore (counted on the shared
    serving_cache_resets_total path), then rebuild against the restored
    table."""
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

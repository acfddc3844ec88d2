"""The asyncio control plane: concurrency, ordering, and observability.

The repo carries no asyncio pytest plugin, so every test is a plain sync
function driving its scenario through ``asyncio.run`` — the controller's
public API is awaitable either way.
"""

from __future__ import annotations

import asyncio
import inspect

import pytest

from repro import obs
from repro.core.operators import RelOp
from repro.core.policy import Policy, TableRef, min_of, predicate
from repro.engine.batch import META_FILTER_REQUEST
from repro.errors import CompilationError, ConfigurationError, FaultError
from repro.rmt.packet import META_TENANT, Packet
from repro.serving import WriteAheadLog, canonical_bytes, recover
from repro.serving.backend import BatchedBackend, ScalarBackend, TableWrite
from repro.serving.controller import _GROUP_COMMIT_MAX, Controller
from repro.serving.wal import read_wal
from repro.tenancy.manager import TenantManager, TenantSpec

METRICS = ("cpu", "mem")
BACKENDS = (ScalarBackend, BatchedBackend)


def _policy(name="ll") -> Policy:
    return Policy(min_of(TableRef(), "cpu"), name=name)


def _spec(name: str) -> TenantSpec:
    return TenantSpec(name=name, policy=_policy(), smbm_quota=8)


def _backend(cls=ScalarBackend):
    return cls(TenantManager(METRICS, smbm_capacity=16))


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda c: c.name)
def test_concurrent_clients_admit_and_write(cls):
    backend = _backend(cls)

    async def client(ctl: Controller, name: str) -> None:
        await ctl.add_tenant(_spec(name))
        for i in range(10):
            await ctl.update_resource(name, i % 4, {"cpu": i, "mem": i})

    async def scenario():
        async with Controller(backend) as ctl:
            await asyncio.gather(client(ctl, "a"), client(ctl, "b"))

    asyncio.run(scenario())
    assert len(backend.manager) == 2
    for name in ("a", "b"):
        assert len(backend.manager.get(name).module.smbm) == 4


def test_per_tenant_ops_apply_in_submission_order():
    backend = _backend()

    async def scenario():
        async with Controller(backend) as ctl:
            await ctl.add_tenant(_spec("t"))
            # Fire a dependent sequence without awaiting intermediates:
            # all land on tenant t's FIFO queue and must apply in order.
            writes = [
                asyncio.ensure_future(
                    ctl.update_resource("t", 1, {"cpu": i, "mem": i})
                )
                for i in range(50)
            ]
            await asyncio.gather(*writes)

    asyncio.run(scenario())
    smbm = backend.manager.get("t").module.smbm
    assert smbm.snapshot()[1] == {"cpu": 49, "mem": 49}  # last write wins
    # 1 add + 49 updates, each an SMBM version bump (update = delete+add
    # composite commits once per op through update_resource).
    assert len(smbm) == 1


def test_interleaved_tenants_do_not_block_each_other():
    backend = _backend()
    order: list[str] = []

    async def client(ctl, name, n):
        await ctl.add_tenant(_spec(name))
        for i in range(n):
            await ctl.update_resource(name, 0, {"cpu": i, "mem": 0})
            order.append(name)

    async def scenario():
        async with Controller(backend) as ctl:
            await asyncio.gather(client(ctl, "a", 20), client(ctl, "b", 20))

    asyncio.run(scenario())
    # Both tenants' streams completed and genuinely interleaved (neither
    # ran to completion before the other started).
    assert order.count("a") == order.count("b") == 20
    assert order[:20].count("a") < 20 and order[:20].count("b") < 20


def test_errors_relay_to_the_submitting_client():
    backend = _backend()

    async def scenario():
        async with Controller(backend) as ctl:
            await ctl.add_tenant(_spec("t"))
            with pytest.raises(CompilationError):
                await ctl.add_tenant(_spec("t"))  # double admission
            with pytest.raises(ConfigurationError):
                await ctl.update_resource("ghost", 1, {"cpu": 1, "mem": 1})
            # The controller survives client errors: next op applies.
            await ctl.update_resource("t", 1, {"cpu": 1, "mem": 1})

    asyncio.run(scenario())
    assert len(backend.manager.get("t").module.smbm) == 1


def test_hot_swap_serializes_with_writes():
    backend = _backend()

    async def scenario():
        async with Controller(backend) as ctl:
            await ctl.add_tenant(_spec("t"))
            futures = [
                asyncio.ensure_future(
                    ctl.update_resource("t", i, {"cpu": i, "mem": i})
                )
                for i in range(5)
            ]
            swap = asyncio.ensure_future(ctl.hot_swap(
                "t", Policy(predicate(TableRef(), "cpu", RelOp.LT, 3),
                            name="swapped"),
            ))
            await asyncio.gather(*futures, swap)
            return swap.result()

    epoch = asyncio.run(scenario())
    assert epoch == 1
    assert backend.manager.get("t").module.policy.name == "swapped"


def test_write_batch_rejects_foreign_tenant_writes():
    backend = _backend()

    async def scenario():
        async with Controller(backend) as ctl:
            await ctl.add_tenant(_spec("t"))
            with pytest.raises(ConfigurationError):
                await ctl.write_batch("t", [
                    TableWrite("other", 1, {"cpu": 1, "mem": 1}),
                ])
            return await ctl.write_batch("t", [
                TableWrite("t", 1, {"cpu": 1, "mem": 1}),
                TableWrite("t", 2, {"cpu": 2, "mem": 2}),
                TableWrite("t", 1, None),
            ])

    assert asyncio.run(scenario()) == 3
    assert sorted(backend.manager.get("t").module.smbm.snapshot()) == [2]


def test_write_batch_still_validates_tenant_ownership(registry):
    """The ownership check refuses at submit: nothing is queued, counted
    or applied."""
    backend = _backend()

    async def scenario():
        async with Controller(backend) as ctl:
            await ctl.add_tenant(_spec("t"))
            with pytest.raises(ConfigurationError):
                await ctl.write_batch("t", [
                    TableWrite("t", 1, {"cpu": 1, "mem": 1}),
                    TableWrite("other", 2, {"cpu": 2, "mem": 2}),
                ])

    asyncio.run(scenario())
    assert len(backend.manager.get("t").module.smbm) == 0
    # The admit is the only op the controller ever saw.
    assert registry.value_of("controller_ops_total") == 1
    assert registry.value_of("controller_ops_total",
                             {"op": "add_tenant", "outcome": "ok",
                              "backend": "scalar"}) == 1


def test_controller_takes_backend_and_wal_only():
    params = inspect.signature(Controller).parameters
    assert list(params) == ["backend", "wal"]
    assert params["wal"].kind is inspect.Parameter.KEYWORD_ONLY


class _FlakyBackend(ScalarBackend):
    """A backend whose first ``fail_times`` write batches raise a
    fault-class error."""

    def __init__(self, manager, *, fail_times: int):
        super().__init__(manager)
        self.fail_times = fail_times
        self.attempts = 0

    def write_batch(self, writes):
        self.attempts += 1
        if self.attempts <= self.fail_times:
            raise FaultError("transient glitch", component="backend",
                             resource=self.attempts)
        return super().write_batch(writes)


def test_without_retry_policy_fault_surfaces_immediately():
    """An op applies once or is refused: a fault reaches the client as
    raised, and the backend is never called again for it."""
    backend = _FlakyBackend(TenantManager(METRICS, smbm_capacity=16),
                            fail_times=1)

    async def scenario():
        async with Controller(backend) as ctl:
            await ctl.add_tenant(_spec("t"))
            with pytest.raises(FaultError, match="transient glitch"):
                await ctl.update_resource("t", 1, {"cpu": 5, "mem": 6})

    asyncio.run(scenario())
    assert backend.attempts == 1
    assert len(backend.manager.get("t").module.smbm) == 0


def test_unaffected_tenants_keep_serving_under_overload():
    """Tenant 'noisy' has a hot-swap and writes queued; tenant 'quiet'
    still serves packets from its installed plan, ahead of all of them."""
    backend = _backend()

    async def scenario():
        async with Controller(backend) as ctl:
            await ctl.add_tenant(_spec("noisy"))
            await ctl.add_tenant(_spec("quiet"))
            await ctl.update_resource("quiet", 1, {"cpu": 3, "mem": 4})
            blocker = asyncio.create_task(ctl.hot_swap("noisy", _policy()))
            flood = [
                asyncio.create_task(ctl.update_resource(
                    "noisy", i, {"cpu": i, "mem": i}))
                for i in range(8)
            ]
            await asyncio.sleep(0)  # every noisy op is queued, none applied
            # The quiet tenant's data path serves the installed plan...
            served = await ctl.process_batch([
                Packet(metadata={META_FILTER_REQUEST: 1,
                                 META_TENANT: "quiet"})
            ])
            # ...while every noisy op still waits its turn.
            assert not any(t.done() for t in (blocker, *flood))
            assert len(backend.manager.get("noisy").module.smbm) == 0
            await asyncio.gather(blocker, *flood)
            return served

    served = asyncio.run(scenario())
    assert len(served) == 1
    assert sorted(
        backend.manager.get("quiet").module.smbm.snapshot()
    ) == [1]
    assert len(backend.manager.get("noisy").module.smbm) == 8


def test_a_flood_on_one_tenant_delays_another_by_one_turn(tmp_path):
    """200 noisy writes are queued before one quiet write: the quiet op
    is logged after at most one burst of noisy ops, not the whole flood."""
    wal_path = tmp_path / "ops.wal"

    async def scenario():
        wal = WriteAheadLog(wal_path)
        async with Controller(_backend(), wal=wal) as ctl:
            await ctl.add_tenant(_spec("noisy"))
            await ctl.add_tenant(_spec("quiet"))
            flood = [asyncio.create_task(ctl.update_resource(
                "noisy", i % 8, {"cpu": i, "mem": i})) for i in range(200)]
            quiet = asyncio.create_task(ctl.update_resource(
                "quiet", 1, {"cpu": 1, "mem": 1}))
            await asyncio.gather(*flood, quiet)
        wal.close()

    asyncio.run(scenario())
    writes = [r.tenant for r in read_wal(wal_path).records
              if r.kind == "update_resource"]
    assert len(writes) == 201
    assert writes.index("quiet") <= _GROUP_COMMIT_MAX


def test_pipelined_burst_group_commits_into_few_frames(tmp_path):
    """A gathered burst on one tenant drains as group-commit frames:
    far fewer WAL frames than records, and the log still replays to the
    exact live state.  Arming a crash hook changes none of it: the
    hooked run writes the same bytes, not one frame per op."""

    async def scenario(wal_path, hook) -> ScalarBackend:
        backend = _backend()
        wal = WriteAheadLog(wal_path, sync="flush", crash_hook=hook)
        async with Controller(backend, wal=wal) as ctl:
            await ctl.add_tenant(_spec("a"))
            for _ in range(4):
                await asyncio.gather(*(
                    ctl.update_resource("a", i % 8, {"cpu": i, "mem": 1})
                    for i in range(16)
                ))
        wal.close()
        return backend

    logs = []
    for name, hook in (("plain", None),
                       ("armed", lambda site, record=None: None)):
        registry = obs.MetricsRegistry()
        wal_path = tmp_path / f"{name}.wal"
        with obs.use_registry(registry):
            live = asyncio.run(scenario(wal_path, hook))
            appends = registry.value_of("wal_appends_total")
            frames = registry.value_of("wal_frames_total")
            # 1 admit + 64 updates + 1 shutdown marker, in far fewer frames.
            assert appends == 66
            assert frames <= 2 + 2 * 4  # admit, shutdown, bursts (+splits)
            report = recover(wal_path, lambda _ckpt: _backend())
            assert not report.unclean and report.errors == []
            assert (canonical_bytes(report.backend.snapshot().payload())
                    == canonical_bytes(live.snapshot().payload()))
        logs.append(wal_path.read_bytes())
    assert logs[0] == logs[1]


def test_closed_controller_rejects_submissions():
    backend = _backend()

    async def scenario():
        ctl = Controller(backend)
        await ctl.add_tenant(_spec("t"))
        await ctl.aclose()
        with pytest.raises(ConfigurationError):
            await ctl.add_tenant(_spec("u"))

    asyncio.run(scenario())


def test_controller_obs_series():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        backend = _backend()

        async def scenario():
            async with Controller(backend) as ctl:
                await ctl.add_tenant(_spec("t"))
                for i in range(3):
                    await ctl.update_resource("t", i, {"cpu": i, "mem": i})
                try:
                    await ctl.update_resource("ghost", 0,
                                              {"cpu": 0, "mem": 0})
                except ConfigurationError:
                    pass

        asyncio.run(scenario())
        snap = obs.snapshot(registry)
    counters = snap["counters"]
    assert counters[
        'controller_ops_total{backend="scalar",op="add_tenant",outcome="ok"}'
    ] == 1
    assert counters[
        'controller_ops_total{backend="scalar",op="update_resource",'
        'outcome="ok"}'
    ] == 3
    assert counters[
        'controller_ops_total{backend="scalar",op="update_resource",'
        'outcome="error"}'
    ] == 1
    gauges = snap["gauges"]
    assert 'controller_queue_depth{backend="scalar"}' in gauges
    assert any(k.startswith("controller_apply_ns") for k in snap["histograms"])


def test_module_smoke_entrypoint(capsys):
    from repro.serving.controller import main

    assert main(["--backend", "batched", "--writes", "4"]) == 0
    out = capsys.readouterr().out
    assert "healthy" in out
    assert "controller_ops_total" in out

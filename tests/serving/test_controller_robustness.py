"""Deadlines, retry, circuit breaker, and load shedding on the controller.

Same plain-sync ``asyncio.run`` style as ``test_controller.py`` (no
asyncio pytest plugin in this repo).
"""

from __future__ import annotations

import asyncio
import itertools

import pytest

from repro import obs
from repro.core.policy import Policy, TableRef, min_of
from repro.engine.batch import META_FILTER_REQUEST
from repro.errors import (
    CircuitOpen,
    ConfigurationError,
    DeadlineExceeded,
    FaultError,
    Overloaded,
    RetryExhausted,
)
from repro.faults import RetryPolicy
from repro.rmt.packet import META_TENANT, Packet
from repro.serving.backend import ScalarBackend, TableWrite
from repro.serving.breaker import BreakerState, CircuitBreakerConfig
from repro.serving.controller import Controller
from repro.tenancy.manager import TenantManager, TenantSpec

METRICS = ("cpu", "mem")


def _policy() -> Policy:
    return Policy(min_of(TableRef(), "cpu"), name="ll")


def _spec(name: str) -> TenantSpec:
    return TenantSpec(name=name, policy=_policy(), smbm_quota=8)


def _backend() -> ScalarBackend:
    return ScalarBackend(TenantManager(METRICS, smbm_capacity=16))


class _FlakyBackend(ScalarBackend):
    """Wraps write_batch to fail with a transient fault N times per call
    pattern, then succeed — the injected fault the retry satellite needs."""

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


# -- retry (the RetryPolicy satellite) -------------------------------------------------


def test_transient_fault_is_retried_to_success():
    backend = _FlakyBackend(TenantManager(METRICS, smbm_capacity=16),
                            fail_times=2)
    registry = obs.MetricsRegistry()

    async def scenario() -> None:
        async with Controller(
            backend, retry_policy=RetryPolicy(max_attempts=3,
                                              base_delay_s=0.0)
        ) as ctl:
            await ctl.add_tenant(_spec("t"))
            await ctl.update_resource("t", 1, {"cpu": 5, "mem": 6})

    with obs.use_registry(registry):
        asyncio.run(scenario())
    assert backend.attempts == 3  # two transient failures, then success
    assert sorted(backend.manager.get("t").module.smbm.snapshot()) == [1]
    assert registry.value_of("controller_retries_total",
                             {"op": "update_resource",
                              "backend": "scalar"}) == 2


def test_permanent_fault_surfaces_as_retry_exhausted_with_context():
    backend = _FlakyBackend(TenantManager(METRICS, smbm_capacity=16),
                            fail_times=10 ** 6)  # never recovers

    async def scenario() -> None:
        async with Controller(
            backend, retry_policy=RetryPolicy(max_attempts=3,
                                              base_delay_s=0.0)
        ) as ctl:
            await ctl.add_tenant(_spec("t"))
            with pytest.raises(RetryExhausted) as err:
                await ctl.update_resource("t", 1, {"cpu": 5, "mem": 6})
            assert err.value.attempts == 3
            assert err.value.component == "controller"
            assert err.value.resource == "t"
            assert isinstance(err.value.__cause__, FaultError)

    asyncio.run(scenario())
    assert backend.attempts == 3


def test_without_retry_policy_fault_surfaces_immediately():
    backend = _FlakyBackend(TenantManager(METRICS, smbm_capacity=16),
                            fail_times=1)

    async def scenario() -> None:
        async with Controller(backend) as ctl:
            await ctl.add_tenant(_spec("t"))
            with pytest.raises(FaultError):
                await ctl.update_resource("t", 1, {"cpu": 5, "mem": 6})

    asyncio.run(scenario())
    assert backend.attempts == 1


def test_configuration_errors_are_not_retried():
    backend = _backend()
    registry = obs.MetricsRegistry()

    async def scenario() -> None:
        async with Controller(
            backend, retry_policy=RetryPolicy(max_attempts=5,
                                              base_delay_s=0.0)
        ) as ctl:
            with pytest.raises(ConfigurationError):
                await ctl.update_resource("ghost", 0, {"cpu": 0, "mem": 0})

    with obs.use_registry(registry):
        asyncio.run(scenario())
    assert registry.value_of("controller_retries_total") == 0


# -- deadlines -------------------------------------------------------------------------


def test_deadline_exceeded_fails_fast_without_applying():
    backend = _backend()
    registry = obs.MetricsRegistry()

    async def scenario() -> None:
        # deadline_s=0: every op has already missed it by apply time.
        async with Controller(backend, deadline_s=0.0) as ctl:
            with pytest.raises(DeadlineExceeded) as err:
                await ctl.add_tenant(_spec("t"))
            assert err.value.deadline_s == 0.0
            assert err.value.waited_s is not None

    with obs.use_registry(registry):
        asyncio.run(scenario())
    assert len(backend.manager) == 0  # never partially applied
    assert registry.value_of("controller_deadline_exceeded_total") == 1


def test_generous_deadline_does_not_fire():
    backend = _backend()
    registry = obs.MetricsRegistry()

    async def scenario() -> None:
        async with Controller(backend, deadline_s=30.0) as ctl:
            await ctl.add_tenant(_spec("t"))
            await ctl.update_resource("t", 1, {"cpu": 5, "mem": 6})

    with obs.use_registry(registry):
        asyncio.run(scenario())
    assert registry.value_of("controller_deadline_exceeded_total") == 0
    assert len(backend.manager) == 1


# -- circuit breaker -------------------------------------------------------------------


def _clock(start: float = 0.0):
    """A controllable monotonic clock for deterministic cooldowns."""
    state = {"now": start}

    def now() -> float:
        return state["now"]

    def advance(dt: float) -> None:
        state["now"] += dt

    return now, advance


def test_breaker_opens_after_consecutive_failures_and_recloses():
    backend = _FlakyBackend(TenantManager(METRICS, smbm_capacity=16),
                            fail_times=3)
    now, advance = _clock()
    config = CircuitBreakerConfig(failure_threshold=3, reset_timeout_s=1.0,
                                  clock=now)
    registry = obs.MetricsRegistry()

    async def scenario() -> None:
        async with Controller(backend, breaker=config) as ctl:
            await ctl.add_tenant(_spec("t"))
            backend.attempts = 0  # only table writes from here on fail
            for _ in range(3):
                with pytest.raises(FaultError):
                    await ctl.update_resource("t", 1, {"cpu": 1, "mem": 1})
            # Threshold reached: the breaker is open, submits fail fast
            # without touching the queue or the backend.
            applied_before = backend.attempts
            with pytest.raises(CircuitOpen) as err:
                await ctl.update_resource("t", 2, {"cpu": 2, "mem": 2})
            assert err.value.tenant == "t" and err.value.failures == 3
            assert backend.attempts == applied_before
            assert registry.value_of("circuit_state", {"tenant": "t"}) == 2
            assert registry.value_of("controller_degraded",
                                     {"backend": "scalar"}) == 1
            # Data path keeps serving while the control plane is tripped.
            served = await ctl.process_batch([
                Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: "t"})
            ])
            assert len(served) == 1
            # Cooldown elapses; the half-open probe succeeds (backend
            # recovered) and the breaker re-closes.
            advance(1.5)
            await ctl.update_resource("t", 3, {"cpu": 3, "mem": 3})
            assert registry.value_of("circuit_state", {"tenant": "t"}) == 0
            assert registry.value_of("controller_degraded",
                                     {"backend": "scalar"}) == 0

    with obs.use_registry(registry):
        asyncio.run(scenario())
    assert sorted(backend.manager.get("t").module.smbm.snapshot()) == [3]


def test_failed_half_open_probe_reopens():
    backend = _FlakyBackend(TenantManager(METRICS, smbm_capacity=16),
                            fail_times=10 ** 6)
    now, advance = _clock()
    config = CircuitBreakerConfig(failure_threshold=2, reset_timeout_s=1.0,
                                  clock=now)

    async def scenario() -> None:
        async with Controller(backend, breaker=config) as ctl:
            await ctl.add_tenant(_spec("t"))
            backend.attempts = 0
            backend.fail_times = 10 ** 6
            for _ in range(2):
                with pytest.raises(FaultError):
                    await ctl.update_resource("t", 1, {"cpu": 1, "mem": 1})
            advance(1.5)
            # Probe admitted, fails -> straight back to open.
            with pytest.raises(FaultError):
                await ctl.update_resource("t", 1, {"cpu": 1, "mem": 1})
            with pytest.raises(CircuitOpen):
                await ctl.update_resource("t", 1, {"cpu": 1, "mem": 1})

    asyncio.run(scenario())


def test_breakers_are_per_tenant():
    backend = _backend()
    config = CircuitBreakerConfig(failure_threshold=1, reset_timeout_s=60.0)

    async def scenario() -> None:
        async with Controller(backend, breaker=config) as ctl:
            await ctl.add_tenant(_spec("ok"))
            # 'wedged' trips its breaker with one fault-class failure...
            with pytest.raises(Exception):
                await ctl.hot_swap("wedged", _policy())
            # ...but hot_swap on a missing tenant is a ConfigurationError,
            # which must NOT trip the breaker.
            await ctl.update_resource("ok", 1, {"cpu": 1, "mem": 1})

    asyncio.run(scenario())
    assert sorted(backend.manager.get("ok").module.smbm.snapshot()) == [1]


def test_breaker_config_validation():
    with pytest.raises(ConfigurationError):
        CircuitBreakerConfig(failure_threshold=0)
    with pytest.raises(ConfigurationError):
        CircuitBreakerConfig(reset_timeout_s=-1.0)
    assert BreakerState.ENCODING[BreakerState.OPEN] == 2


# -- bounded queues and load shedding --------------------------------------------------


def test_queue_limit_validation():
    with pytest.raises(ConfigurationError):
        Controller(_backend(), queue_limit=0)


def test_saturated_queue_sheds_lowest_priority():
    """Fill a tenant's queue with table writes while the worker is
    blocked, then submit a lifecycle op: a queued write is displaced
    (Overloaded), the lifecycle op gets its slot, and the shed is
    counted."""
    backend = _backend()
    registry = obs.MetricsRegistry()

    async def scenario() -> None:
        async with Controller(backend, queue_limit=3) as ctl:
            await ctl.add_tenant(_spec("t"))
            # Block the admission lock so queued ops cannot drain.
            release = asyncio.Event()

            async def hold_lock() -> None:
                async with ctl._admission_lock:
                    await release.wait()

            holder = asyncio.create_task(hold_lock())
            await asyncio.sleep(0)
            # hot_swap needs admission: it blocks the tenant's worker.
            blocker = asyncio.create_task(ctl.hot_swap("t", _policy()))
            await asyncio.sleep(0)
            writes = [
                asyncio.create_task(ctl.update_resource(
                    "t", i, {"cpu": i, "mem": i}))
                for i in range(3)
            ]
            await asyncio.sleep(0)
            # Queue holds 3 writes (the hot_swap is in the worker, not
            # the queue): a 4th write is shed on arrival...
            with pytest.raises(Overloaded) as err:
                await ctl.update_resource("t", 9, {"cpu": 9, "mem": 9})
            assert err.value.op == "update_resource"
            # ...while an arriving lifecycle op displaces a queued write.
            evict = asyncio.create_task(ctl.remove_tenant("t"))
            await asyncio.sleep(0)
            release.set()
            await holder
            await blocker
            results = await asyncio.gather(*writes,
                                           return_exceptions=True)
            shed = [r for r in results if isinstance(r, Overloaded)]
            assert len(shed) == 1  # the displaced write
            await evict

    with obs.use_registry(registry):
        asyncio.run(scenario())
    assert registry.value_of("controller_shed_total") == 2
    assert registry.value_of(
        "controller_shed_total", {"op": "update_resource",
                                  "backend": "scalar"}) == 2
    assert len(backend.manager) == 0  # the evict applied


def test_unaffected_tenants_keep_serving_under_overload():
    """Overload tenant 'noisy'; tenant 'quiet' still applies control ops
    and serves packets from its last-good plan — degraded mode."""
    backend = _backend()

    async def scenario() -> list:
        async with Controller(backend, queue_limit=2) as ctl:
            await ctl.add_tenant(_spec("noisy"))
            await ctl.add_tenant(_spec("quiet"))
            await ctl.update_resource("quiet", 1, {"cpu": 3, "mem": 4})
            release = asyncio.Event()

            async def hold_lock() -> None:
                async with ctl._admission_lock:
                    await release.wait()

            holder = asyncio.create_task(hold_lock())
            await asyncio.sleep(0)
            blocker = asyncio.create_task(ctl.hot_swap("noisy", _policy()))
            await asyncio.sleep(0)
            flood = [
                asyncio.create_task(ctl.update_resource(
                    "noisy", i, {"cpu": i, "mem": i}))
                for i in range(2)
            ]
            await asyncio.sleep(0)
            shed_count = 0
            for i in itertools.count():
                try:
                    await ctl.update_resource(
                        "noisy", i % 8, {"cpu": 1, "mem": 1})
                except Overloaded:
                    shed_count += 1
                if shed_count >= 3:
                    break
            assert shed_count == 3
            # The quiet tenant's control plane is untouched by the
            # noisy tenant's saturation...
            await ctl.update_resource("quiet", 2, {"cpu": 5, "mem": 6})
            # ...and its data path serves the installed plan.
            served = await ctl.process_batch([
                Packet(metadata={META_FILTER_REQUEST: 1,
                                 META_TENANT: "quiet"})
            ])
            release.set()
            await holder
            await blocker
            await asyncio.gather(*flood, return_exceptions=True)
            return served

    served = asyncio.run(scenario())
    assert len(served) == 1
    assert sorted(
        backend.manager.get("quiet").module.smbm.snapshot()
    ) == [1, 2]


def test_write_batch_still_validates_tenant_ownership():
    backend = _backend()

    async def scenario() -> None:
        async with Controller(backend, queue_limit=8) as ctl:
            await ctl.add_tenant(_spec("t"))
            with pytest.raises(ConfigurationError):
                await ctl.write_batch("t", [
                    TableWrite("other", 1, {"cpu": 1, "mem": 1})
                ])

    asyncio.run(scenario())


def test_pipelined_burst_group_commits_into_few_frames(tmp_path):
    """A gathered burst on one tenant drains as group-commit frames:
    far fewer WAL frames than records, and the log still replays to the
    exact live state.  Arming a crash hook changes none of it: the
    hooked run writes the same bytes, not one frame per op."""
    from repro.serving import WriteAheadLog, canonical_bytes, recover

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

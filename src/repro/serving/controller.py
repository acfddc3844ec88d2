"""The asyncio control plane over a :class:`SwitchBackend`.

Many clients submit tenant-lifecycle and table operations concurrently;
the controller guarantees:

* **per-tenant total order** — every op names a tenant and lands on that
  tenant's FIFO queue, drained by one worker task, so a client's
  ``update; update; hot_swap`` sequence applies in exactly that order no
  matter how many other clients are active;
* **serialized admission** — ops that touch the shared physical budget
  (admit, evict, hot-swap, migration phases) additionally hold the
  admission lock, so the :class:`~repro.tenancy.manager.TenantManager`
  admission path runs one op at a time across all tenants;
* **one statement per op** — a public method only builds its op's typed
  payload; what the op does, and how it is spelled in the log, is its
  row of :data:`repro.serving.ops.CONTROL_OPS`, which
  :func:`repro.serving.recovery.recover` replays through as well;
* **migration transparency** — every per-tenant op (table writes,
  hot-swap, evict) resolves its target through one lookup,
  :meth:`Homes.resolve <repro.serving.ops.Homes.resolve>`: the
  :class:`~repro.serving.migration.LiveMigration` while the tenant is
  dual-running (the op lands on *both* instances), the destination once
  it is cut over, this controller's backend otherwise; the submitting
  client neither knows nor cares that a move is in flight, and no
  control op is dropped;
* **crash consistency** — with a :class:`~repro.serving.wal.WriteAheadLog`
  attached, every control op is appended (and made durable) immediately
  *before* it applies, in apply order, so an acknowledged op is always
  recoverable by :func:`~repro.serving.recovery.recover` and a crash loses
  only unacknowledged ops; a worker *group-commits*: it drains every
  immediately-available op on its queue and logs the burst as one WAL
  frame (single encode + write + flush), which keeps durable logging
  cheap on pipelined control streams; an op whose outcome replay cannot
  recompute (``cutover``, ``checkpoint``) is alone in its batch and logs
  at its commit point instead; :meth:`checkpoint` logs one
  ``checkpoint`` record holding the whole
  :class:`~repro.serving.checkpoint.SwitchCheckpoint` payload and the
  per-tenant op-id high-water mark, bounding replay to the suffix; a
  clean :meth:`aclose` appends a ``shutdown`` marker — its absence is
  how recovery detects a crash.  The log is the only file, so every
  crash site is on it: the WAL's ``crash_hook`` also fires
  ``ctl.after_apply`` once per applied op;
* **overload protection** — optional per-op deadlines
  (:class:`~repro.errors.DeadlineExceeded`, never partially applied),
  :class:`~repro.faults.retry.RetryPolicy`-driven backoff for transient
  fault-class apply errors (exhaustion surfaces as
  :class:`~repro.errors.RetryExhausted` with attempt context), a
  per-tenant :class:`~repro.serving.breaker.CircuitBreaker` failing
  submits fast (:class:`~repro.errors.CircuitOpen`) while a tenant is
  wedged, and bounded per-tenant queues that shed the lowest-priority
  queued op (:class:`~repro.errors.Overloaded`) under saturation.
  Throughout all of it the *data path* keeps serving the last-good plan:
  :meth:`process_batch` never queues behind control ops and keeps
  working even while every breaker is open — the degraded mode the
  ``controller_degraded`` gauge advertises;
* **no state per name** — a tenant's queue, worker task and queue-depth
  series exist while ops are queued or the name is admitted, migrating
  or moved; a name nobody lives under is released once its queue drains.

Observability: ``controller_ops_total{op,outcome}``,
``controller_queue_depth{tenant}``, ``controller_apply_ns{op}``,
``controller_deadline_exceeded_total``, ``controller_retries_total{op}``,
``controller_shed_total{op}``, ``controller_degraded``, plus the
``wal_*`` series and ``circuit_state{tenant}`` from the attached
subsystems.

``python -m repro.serving.controller`` runs a self-contained smoke
scenario (concurrent clients on a chosen backend) and prints the metrics
it produced — the quickstart in the README.
"""

from __future__ import annotations

import argparse
import asyncio
import time
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.core.policy import Policy
from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    FaultError,
    Overloaded,
    RetryExhausted,
)
from repro.faults.injector import SimulatedCrash
from repro.faults.retry import RetryPolicy
from repro.rmt.packet import Packet
from repro.serving.backend import SwitchBackend, TableWrite, build_backend
from repro.serving.breaker import (
    BreakerState,
    CircuitBreaker,
    CircuitBreakerConfig,
)
from repro.serving.checkpoint import SwitchCheckpoint
from repro.serving.migration import LiveMigration
from repro.serving.ops import CONTROL_OPS, ControlOp, Homes
from repro.serving.wal import WalRecord, WriteAheadLog
from repro.tenancy.manager import Tenant, TenantSpec

__all__ = ["Controller"]

_SHUTDOWN = object()

#: Reserved queue for switch-wide ops (checkpoint) — not a tenant name.
_CTL = "__ctl__"

#: Errors the retry loop must never eat: they *are* the backoff verdict.
_FAIL_FAST = (RetryExhausted, DeadlineExceeded, Overloaded)

#: Most ops a worker logs + applies per wakeup: one group-commit frame.
#: Bounds frame size and how long a drained burst can starve shedding.
_GROUP_COMMIT_MAX = 64


@dataclass
class _Op:
    kind: str
    tenant: str
    payload: Any
    future: asyncio.Future[Any]
    #: The op's row of the table; ``None`` for the checkpoint marker op.
    spec: ControlOp | None
    enqueued_ns: int = field(default_factory=time.perf_counter_ns)
    #: Set by the worker once the op's WAL record is durable.
    record: WalRecord | None = None

    @property
    def lifecycle(self) -> bool:
        """Holds the admission lock, and displaces table maintenance
        under overload — never the other way around."""
        return self.spec is None or self.spec.lifecycle

    @property
    def solo(self) -> bool:
        """Logs at its own commit point, so it shares a WAL frame (and
        a group-commit batch) with no other op."""
        return self.spec is None or self.spec.gate is not None


class _OpQueue:
    """Per-tenant FIFO with priority displacement and join semantics.

    A hand-rolled :class:`asyncio.Queue` replacement because load
    shedding needs what Queue cannot do: remove a specific queued item
    (the lowest-priority one) when a higher-priority op arrives at a
    full queue.
    """

    def __init__(self) -> None:
        self._items: deque[Any] = deque()
        self._not_empty = asyncio.Event()
        self._unfinished = 0
        self._idle = asyncio.Event()
        self._idle.set()

    def qsize(self) -> int:
        return len(self._items)

    def real_size(self) -> int:
        return sum(1 for item in self._items if item is not _SHUTDOWN)

    def put_nowait(self, item: Any) -> None:
        self._items.append(item)
        if item is not _SHUTDOWN:
            self._unfinished += 1
            self._idle.clear()
        self._not_empty.set()

    def drain_ready(self, first: _Op, limit: int) -> list[_Op]:
        """The group-commit drain: ``first`` plus the immediately
        available ops behind it, up to ``limit`` in all, stopping short
        of a shutdown sentinel and keeping a solo op alone."""
        out = [first]
        while not first.solo and self._items and len(out) < limit:
            head = self._items[0]
            if head is _SHUTDOWN or head.solo:
                break
            out.append(self._items.popleft())
        return out

    def displace_lowest(self, arrival: _Op) -> _Op | None:
        """Remove and return the newest queued table op a lifecycle
        ``arrival`` may displace, or ``None`` when there is none."""
        for i in range(len(self._items) - 1, -1, -1):
            item = self._items[i]
            if item is not _SHUTDOWN and item.lifecycle < arrival.lifecycle:
                del self._items[i]
                self.task_done()
                return item
        return None

    def clear_pending(self) -> list[_Op]:
        """Drop everything still queued (crash path); returns the ops."""
        dropped = [it for it in self._items if it is not _SHUTDOWN]
        self._items.clear()
        for _ in dropped:
            self.task_done()
        return dropped

    async def get(self) -> Any:
        while not self._items:
            self._not_empty.clear()
            await self._not_empty.wait()
        return self._items.popleft()

    def task_done(self) -> None:
        self._unfinished -= 1
        if self._unfinished <= 0:
            self._idle.set()

    async def join(self) -> None:
        await self._idle.wait()


class Controller:
    """Accepts concurrent control streams; applies them safely in order.

    Use as an async context manager (or call :meth:`aclose` yourself)::

        async with Controller(backend) as ctl:
            tenant = await ctl.add_tenant(spec)
            await ctl.update_resource(spec.name, 1, {"cpu": 10})

    Every submit method returns once its op has *applied* (or raised) on
    the backend, so a single client sees synchronous semantics while many
    clients interleave safely.

    All robustness features are opt-in and orthogonal:

    ``wal``
        a :class:`~repro.serving.wal.WriteAheadLog`; every control op is
        appended durably immediately before it applies.  Its
        ``crash_hook`` (the chaos harness's, see
        :meth:`repro.faults.injector.FaultInjector.arm_crash`) fires the
        ``wal.*`` sites once per frame and ``ctl.after_apply`` once per
        applied op.
    ``retry_policy``
        a :class:`~repro.faults.retry.RetryPolicy`; transient fault-class
        apply errors back off and retry, exhaustion raises
        :class:`~repro.errors.RetryExhausted`.
    ``deadline_s``
        per-op queue-to-apply budget; a late op fails with
        :class:`~repro.errors.DeadlineExceeded` *before* logging or
        applying anything.
    ``breaker``
        a :class:`~repro.serving.breaker.CircuitBreakerConfig`; each
        tenant gets a breaker and wedged tenants fail fast at submit.
    ``queue_limit``
        bound on each tenant's queue; saturation sheds the
        lowest-priority op with :class:`~repro.errors.Overloaded`.
    """

    def __init__(self, backend: SwitchBackend, *,
                 wal: WriteAheadLog | None = None,
                 retry_policy: RetryPolicy | None = None,
                 deadline_s: float | None = None,
                 breaker: CircuitBreakerConfig | None = None,
                 queue_limit: int | None = None):
        if queue_limit is not None and queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        self._backend = backend
        self._wal = wal
        self._retry_policy = retry_policy
        self._deadline_s = deadline_s
        self._breaker_config = breaker
        self._queue_limit = queue_limit
        self._queues: dict[str, _OpQueue] = {}
        self._workers: dict[str, asyncio.Task[None]] = {}
        self._homes = Homes(backend)
        self._breakers: dict[str, CircuitBreaker] = {}
        # Per-tenant op-id of the last WAL-logged op whose apply finished
        # (ok or error): the exactly-once high-water mark a checkpoint
        # marker carries so recovery replays only the suffix.
        self._applied_hwm: dict[str, int] = {}
        self._admission_lock = asyncio.Lock()
        self._closed = False
        self._crashed = False
        registry = obs.get_registry()
        backend_label = backend.name
        self._registry = registry
        self._backend_label = backend_label
        self._series: dict[tuple[str, ...], Any] = {}
        self._obs_deadline = registry.counter(
            "controller_deadline_exceeded_total",
            {"backend": backend_label},
            help="ops failed fast for missing their queue-to-apply "
                 "deadline (never partially applied)",
        )
        self._obs_degraded = registry.gauge(
            "controller_degraded", {"backend": backend_label},
            help="1 while any tenant breaker is not closed: control "
                 "plane degraded, data path serving last-good plans",
        )
        self._obs_degraded.set(0)

    # -- obs helpers -------------------------------------------------------------------

    #: The controller's labelled series: name -> (kind, label names, help).
    #: Every series also carries the ``backend`` label.
    _SERIES = {
        "controller_ops_total": (
            "counter", ("op", "outcome"),
            "control-plane operations applied, by op and outcome"),
        "controller_apply_ns": (
            "histogram", ("op",),
            "submit-to-applied latency per op (ns, pow2 buckets)"),
        "controller_queue_depth": (
            "gauge", ("tenant",),
            "ops waiting in a tenant's control queue"),
        "controller_shed_total": (
            "counter", ("op",),
            "control ops shed by bounded-queue load shedding"),
        "controller_retries_total": (
            "counter", ("op",),
            "transient fault-class apply failures retried with backoff"),
    }

    def _metric(self, name: str, *values: str) -> Any:
        """The series ``name`` for these label values, created on first
        use (label values are only known when an op arrives)."""
        key = (name, *values)
        series = self._series.get(key)
        if series is None:
            kind, label_names, help_text = self._SERIES[name]
            labels = dict(zip(label_names, values, strict=True))
            labels["backend"] = self._backend_label
            series = getattr(self._registry, kind)(name, labels,
                                                   help=help_text)
            self._series[key] = series
        return series

    # -- robustness plumbing -----------------------------------------------------------

    def _breaker_for(self, tenant: str) -> CircuitBreaker | None:
        if self._breaker_config is None or tenant == _CTL:
            return None
        breaker = self._breakers.get(tenant)
        if breaker is None:
            breaker = CircuitBreaker(tenant, self._breaker_config)
            self._breakers[tenant] = breaker
        return breaker

    def _update_degraded(self) -> None:
        degraded = any(b.state != BreakerState.CLOSED
                       for b in self._breakers.values())
        self._obs_degraded.set(1 if degraded else 0)

    def _crash(self, site: str, record: WalRecord | None) -> None:
        hook = None if self._wal is None else self._wal.crash_hook
        if hook is not None:
            hook(site, record)

    def _die(self, queue: _OpQueue, op: _Op, rest: list[_Op],
             exc: SimulatedCrash) -> None:
        """The armed crash fired on ``op``: the 'process' is dead.

        Reject the op it hit, the ``rest`` of the batch drained with it
        from ``queue``, and everything still queued anywhere — none was
        acknowledged; a logged record among them may replay on recovery,
        exactly like ops a real crash would have stranded.  Stop every
        worker and abandon the WAL exactly as it is on disk — recovery
        reads the file, not us.
        """
        self._closed = True
        self._crashed = True
        self._metric("controller_ops_total", op.kind, "crash").inc()
        if not op.future.cancelled():
            op.future.set_exception(exc)
        never_acked = list(rest)
        for _ in range(1 + len(rest)):
            queue.task_done()
        for other in self._queues.values():
            never_acked.extend(other.clear_pending())
            other.put_nowait(_SHUTDOWN)
        for pending in never_acked:
            if not pending.future.cancelled():
                pending.future.set_exception(FaultError(
                    "controller crashed before this op applied",
                    component="controller", resource=pending.tenant,
                ))
        if self._wal is not None:
            self._wal.close()

    # -- the per-tenant serializer -----------------------------------------------------

    def _queue_for(self, tenant: str) -> _OpQueue:
        queue = self._queues.get(tenant)
        if queue is None:
            queue = _OpQueue()
            self._queues[tenant] = queue
            self._workers[tenant] = asyncio.get_running_loop().create_task(
                self._worker(tenant, queue)
            )
        return queue

    def _apply(self, op: _Op) -> Any:
        """One op's effect, as its row of the table states it."""
        spec = op.spec
        if spec is None:
            return self._checkpoint()
        if spec.gate is None:
            return spec.apply(self._homes, op.tenant, op.payload)
        # Commit-point logging: the record exists only once the gate has
        # passed, and before the first byte of backend state changes.
        answer = spec.gate(self._homes, op.tenant, op.payload)
        if self._wal is not None:
            op.record = self._wal.append(op.kind, op.tenant,
                                         spec.encode(op.payload))
        spec.apply(self._homes, op.tenant, op.payload)
        return answer

    async def _apply_with_retry(self, op: _Op) -> Any:
        attempt = 0
        while True:
            attempt += 1
            try:
                if op.lifecycle:
                    async with self._admission_lock:
                        return self._apply(op)
                return self._apply(op)
            except _FAIL_FAST:
                raise
            except FaultError as exc:
                policy = self._retry_policy
                if policy is None:
                    raise
                if attempt >= policy.max_attempts:
                    raise RetryExhausted(
                        f"{op.kind} on tenant {op.tenant!r} gave up "
                        f"after {attempt} attempts: {exc}",
                        attempts=attempt, component="controller",
                        resource=op.tenant,
                    ) from exc
                self._metric("controller_retries_total", op.kind).inc()
                await asyncio.sleep(policy.delay_s(attempt - 1))

    def _deadline_exc(self, op: _Op) -> DeadlineExceeded | None:
        """Deadline first: a late op fails before anything is logged or
        applied, so a deadline miss never leaves partial state."""
        if self._deadline_s is None:
            return None
        waited_s = (time.perf_counter_ns() - op.enqueued_ns) / 1e9
        if waited_s <= self._deadline_s:
            return None
        self._obs_deadline.inc()
        return DeadlineExceeded(
            f"{op.kind} on tenant {op.tenant!r} queued "
            f"{waited_s * 1e3:.2f}ms past its "
            f"{self._deadline_s * 1e3:.2f}ms deadline",
            deadline_s=self._deadline_s, waited_s=waited_s,
            resource=op.tenant,
        )

    def _settle(self, queue: _OpQueue, op: _Op, *,
                exc: BaseException | None = None,
                result: Any = None) -> None:
        """Resolve one op's future and account its outcome."""
        breaker = self._breaker_for(op.tenant)
        if exc is not None:
            outcome = "error"
            if breaker is not None:
                if isinstance(exc, FaultError):
                    breaker.record_failure()
                else:
                    # Caller bugs (configuration errors) say nothing
                    # about tenant health.
                    breaker.record_success()
                self._update_degraded()
            if not op.future.cancelled():
                op.future.set_exception(exc)
        else:
            outcome = "ok"
            if breaker is not None:
                breaker.record_success()
                self._update_degraded()
            if not op.future.cancelled():
                op.future.set_result(result)
        self._metric("controller_ops_total", op.kind, outcome).inc()
        self._metric("controller_apply_ns", op.kind).observe(
            time.perf_counter_ns() - op.enqueued_ns
        )
        queue.task_done()

    async def _process_group(self, queue: _OpQueue,
                             batch: list[_Op]) -> bool:
        """Group-commit one drained burst: log every op in a single WAL
        frame, then apply and acknowledge each in order.

        Returns ``False`` when a simulated crash killed the controller
        (the worker must exit).
        """
        live: list[_Op] = []
        for op in batch:
            late = self._deadline_exc(op)
            if late is not None:
                self._settle(queue, op, exc=late)
            else:
                live.append(op)
        # Write-ahead: every record in the frame is durable before the
        # first byte of backend state changes.  Appends happen here in
        # the worker (not at submit) so WAL order is exactly apply order
        # and shed or deadline-failed ops are never logged.
        if self._wal is not None:
            to_log = [op for op in live if not op.solo]
            if to_log:
                try:
                    logged = self._wal.append_group(
                        [(op.kind, op.tenant, op.spec.encode(op.payload))
                         for op in to_log]
                    )
                except SimulatedCrash as exc:
                    hit = to_log[0]
                    self._die(queue, hit,
                              [o for o in live if o is not hit], exc)
                    return False
                except Exception as exc:  # noqa: BLE001 - relayed to callers
                    for op in live:
                        self._settle(queue, op, exc=exc)
                    return True
                for op, rec in zip(to_log, logged, strict=True):
                    op.record = rec
        for index, op in enumerate(live):
            try:
                try:
                    result = await self._apply_with_retry(op)
                finally:
                    # The op is 'processed' for exactly-once purposes
                    # whether it applied or raised (apply errors are
                    # deterministic — replay would fail identically),
                    # but a SimulatedCrash mid-apply must leave the op
                    # below the next checkpoint's high-water mark so
                    # recovery replays it.
                    if op.record is not None and not self._crashed:
                        self._applied_hwm[op.tenant] = op.record.op_id
                self._crash("ctl.after_apply", op.record)
            except SimulatedCrash as exc:
                self._die(queue, op, live[index + 1:], exc)
                return False
            except Exception as exc:  # noqa: BLE001 - relayed to the caller
                self._settle(queue, op, exc=exc)
                continue
            self._settle(queue, op, result=result)
        return True

    async def _worker(self, tenant: str, queue: _OpQueue) -> None:
        while True:
            first = await queue.get()
            if first is _SHUTDOWN:
                return
            batch = queue.drain_ready(first, _GROUP_COMMIT_MAX)
            self._metric("controller_queue_depth", tenant).set(queue.qsize())
            if not await self._process_group(queue, batch):
                return
            if not queue.qsize() and not self._homes.knows(tenant):
                # Nobody lives under this name (a typo, an evicted
                # tenant, a refused admit): a label must not be able to
                # mint state here.  The next submit starts afresh.
                del self._queues[tenant], self._workers[tenant]
                self._series.pop(("controller_queue_depth", tenant), None)
                self._registry.discard("controller_queue_depth", {
                    "tenant": tenant, "backend": self._backend_label})
                return

    async def _submit(self, kind: str, tenant: str, payload: Any) -> Any:
        if self._closed:
            raise ConfigurationError("controller is closed")
        breaker = self._breaker_for(tenant)
        if breaker is not None:
            # Fail fast while the tenant is wedged: nothing is queued,
            # logged, or applied.  check() may flip OPEN -> HALF_OPEN.
            try:
                breaker.check()
            finally:
                self._update_degraded()
        future: asyncio.Future[Any] = (
            asyncio.get_running_loop().create_future()
        )
        op = _Op(kind, tenant, payload, future, CONTROL_OPS.get(kind))
        queue = self._queue_for(tenant)
        if (self._queue_limit is not None
                and queue.real_size() >= self._queue_limit):
            victim = queue.displace_lowest(op)
            if victim is None:
                # Nothing queued is lower priority: shed the arrival.
                self._metric("controller_shed_total", op.kind).inc()
                raise Overloaded(
                    f"tenant {tenant!r} control queue is full "
                    f"({self._queue_limit} ops): {kind} shed",
                    tenant=tenant, op=kind,
                )
            self._metric("controller_shed_total", victim.kind).inc()
            if not victim.future.cancelled():
                victim.future.set_exception(Overloaded(
                    f"tenant {tenant!r} control queue is full "
                    f"({self._queue_limit} ops): queued {victim.kind} "
                    f"displaced by {kind}",
                    tenant=tenant, op=victim.kind,
                ))
        queue.put_nowait(op)
        self._metric("controller_queue_depth", tenant).set(queue.qsize())
        return await future

    # -- tenant lifecycle --------------------------------------------------------------

    async def add_tenant(self, spec: TenantSpec) -> Tenant:
        return await self._submit("add_tenant", spec.name, spec)

    async def remove_tenant(self, name: str) -> None:
        return await self._submit("remove_tenant", name, None)

    async def hot_swap(self, name: str, policy: Policy, *,
                       allow_semantic_change: bool = True) -> int:
        return await self._submit("hot_swap", name,
                                  (policy, allow_semantic_change))

    # -- table maintenance -------------------------------------------------------------

    async def update_resource(self, name: str, resource_id: int,
                              metrics: Mapping[str, int]) -> None:
        return await self._submit(
            "update_resource", name,
            TableWrite(name, resource_id, dict(metrics)))

    async def remove_resource(self, name: str, resource_id: int) -> None:
        return await self._submit("remove_resource", name,
                                  TableWrite(name, resource_id, None))

    async def write_batch(self, name: str,
                          writes: Iterable[TableWrite]) -> int:
        """Apply a write batch in order on one tenant's queue.  Every
        write must address ``name`` — per-tenant ordering is only
        meaningful on the owning tenant's queue."""
        batch = list(writes)
        for write in batch:
            if write.tenant != name:
                raise ConfigurationError(
                    f"write_batch on tenant {name!r} contains a write "
                    f"addressed to {write.tenant!r}"
                )
        return await self._submit("write_batch", name, batch)

    # -- serving (pass-through, ordered per tenant is not required) --------------------

    async def process_batch(self, packets: Sequence[Packet]) -> list[Packet]:
        """Serve a packet stream on the backend.  Deliberately *not*
        routed through the op queues and *not* gated on ``closed``,
        breakers, or deadlines: the data path serves the last-good
        installed plans even while the control plane is overloaded,
        tripped, or crashed — degraded mode."""
        return self._backend.process_batch(list(packets))

    # -- live migration ----------------------------------------------------------------

    async def begin_migration(self, name: str,
                              dest: SwitchBackend) -> LiveMigration:
        """Checkpoint ``name`` and enter dual-running towards ``dest``.

        Ordered on the tenant's queue: writes submitted before this op
        land on the source only (and are captured by the checkpoint);
        writes submitted after it are dual-applied.
        """
        return await self._submit("begin_migration", name, dest)

    async def cutover(self, name: str) -> dict[str, object]:
        """Atomically cut ``name`` over to the migration destination.

        The conservation gate runs first; the ``cutover`` record is
        appended only once it passes, and the source is evicted after
        that — a tripped gate leaves no record and no change.
        """
        return await self._submit("cutover", name, None)

    async def abort_migration(self, name: str) -> None:
        """Tear down an in-flight migration; the source keeps serving."""
        return await self._submit("abort_migration", name, None)

    # -- durability --------------------------------------------------------------------

    async def checkpoint(self) -> SwitchCheckpoint:
        """Snapshot the whole switch into one ``checkpoint`` WAL record.

        Runs as an admission-serialized op, so the snapshot and the
        high-water mark it carries are mutually consistent: recovery
        restores the checkpoint and replays exactly the ops logged after
        it (``op_id`` above each tenant's mark).  The record's args are
        the snapshot's payload plus the mark and the homing state, since
        who is migrating or moved is in no backend snapshot; it is
        durable, torn or absent exactly as any other frame.  Without a
        WAL this only returns the snapshot.
        """
        return await self._submit("checkpoint", _CTL, None)

    def _checkpoint(self) -> SwitchCheckpoint:
        snapshot = self._backend.snapshot()
        if self._wal is not None:
            self._wal.append("checkpoint", _CTL, {
                **snapshot.payload(),
                "hwm": dict(self._applied_hwm),
                **self._homes.to_doc(),
            })
        return snapshot

    # -- lifecycle ---------------------------------------------------------------------

    async def drain(self) -> None:
        """Wait for every queued op to apply."""
        await asyncio.gather(*(q.join() for q in self._queues.values()))

    async def aclose(self) -> None:
        """Drain, stop the worker tasks, log the clean-shutdown marker."""
        if self._closed:
            return
        self._closed = True
        for queue in self._queues.values():
            queue.put_nowait(_SHUTDOWN)
        await asyncio.gather(*self._workers.values())
        if self._wal is not None and not self._crashed:
            # The marker recovery reads as 'no crash here': a WAL whose
            # last record is anything else witnesses an unclean death.
            self._wal.append("shutdown", _CTL)

    async def __aenter__(self) -> Controller:
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()


# -- the smoke scenario: python -m repro.serving.controller ---------------------------


def _smoke_policy(kind: str) -> Policy:
    from repro.core.operators import RelOp
    from repro.core.policy import TableRef, min_of, predicate

    table = TableRef()
    if kind == "min":
        return Policy(min_of(table, "cpu"), name="least-loaded")
    return Policy(
        predicate(table, "cpu", RelOp.LT, 50), name="underloaded"
    )


async def _smoke(backend_kind: str, writes: int) -> dict[str, object]:
    """Two concurrent clients: admit, stream writes, hot-swap, serve."""
    from repro.engine.batch import META_FILTER_REQUEST
    from repro.rmt.packet import META_TENANT
    from repro.tenancy.manager import TenantManager

    manager = TenantManager(("cpu", "mem"), smbm_capacity=16)
    backend = build_backend(backend_kind, manager)

    async def client(ctl: Controller, name: str, kind: str) -> int:
        spec = TenantSpec(name=name, policy=_smoke_policy(kind),
                          smbm_quota=8)
        await ctl.add_tenant(spec)
        for i in range(writes):
            await ctl.update_resource(
                name, i % 8, {"cpu": (i * 7) % 100, "mem": i % 64}
            )
        await ctl.hot_swap(name, _smoke_policy(
            "min" if kind != "min" else "pred"
        ))
        served = await ctl.process_batch([
            Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: name})
            for _ in range(4)
        ])
        return len(served)

    async with Controller(backend) as ctl:
        served = await asyncio.gather(
            client(ctl, "alpha", "min"), client(ctl, "beta", "pred"),
        )
        await ctl.drain()
        health = backend.health()
    health["served"] = sum(served)
    return health


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.controller",
        description="Serving-core smoke: concurrent control clients "
                    "against a chosen switch backend.",
    )
    parser.add_argument("--backend", choices=("scalar", "batched"),
                        default="scalar")
    parser.add_argument("--writes", type=int, default=32,
                        help="table writes per client (default 32)")
    args = parser.parse_args(argv)
    registry = obs.MetricsRegistry()
    previous = obs.set_registry(registry)
    try:
        health = asyncio.run(_smoke(args.backend, args.writes))
    finally:
        obs.set_registry(previous)
    print(f"# smoke on backend={args.backend}: {health}")
    print(obs.to_prometheus(registry))
    return 0 if health.get("healthy") else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""The asyncio control plane over a :class:`SwitchBackend`.

Many clients submit tenant-lifecycle and table operations concurrently;
the controller guarantees:

* **one op at a time, in log order** — every op names a tenant and lands
  on that tenant's FIFO; one worker task serves the FIFOs in turn, so a
  client's ``update; update; hot_swap`` sequence applies in exactly that
  order, the :class:`~repro.tenancy.manager.TenantManager` admission path
  runs one op at a time across all tenants, and the order ops are logged
  in is the order they apply.  This rests on one invariant: no
  :data:`~repro.serving.ops.CONTROL_OPS` ``apply`` or ``gate`` awaits, so
  a turn logs and applies without yielding to the event loop;
* **fair turns** — a turn takes one tenant's burst (at most
  ``_GROUP_COMMIT_MAX`` ops, or one solo op) and then sends that tenant
  to the back of the turn order, so a flood on one tenant delays
  another's op by one burst, not by the whole flood;
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
  only unacknowledged ops; a turn *group-commits*: its burst is logged as
  one WAL frame (single encode + write + flush), which keeps durable
  logging cheap on pipelined control streams; an op whose outcome replay
  cannot recompute (``cutover``, ``checkpoint``) is a turn of its own and
  logs at its commit point instead; :meth:`checkpoint` logs one
  ``checkpoint`` record holding the whole
  :class:`~repro.serving.checkpoint.SwitchCheckpoint` payload and the
  homing state — every record logged before it has applied or failed by
  then, so its place in the log is where replay starts; a clean
  :meth:`aclose` appends a ``shutdown`` marker — its absence is how
  recovery detects a crash.  The log is the only file, so every crash
  site is on it: the WAL's ``crash_hook`` also fires ``ctl.after_apply``
  once per applied op;
* **one path, once** — every op takes the same path (queue, group-commit
  to the WAL, apply, acknowledge) and applies once or is refused.  An
  error reaches the submitting client as raised; nothing retries,
  re-applies or sheds, because replay relies on apply errors being
  deterministic.  The *data path* never queues behind control ops:
  :meth:`process_batch` keeps serving the last-good plans through a busy
  or crashed control plane;
* **no state per name** — a tenant's FIFO exists only while ops are
  queued on it; the one worker, the turn order and one queue-depth
  series are all the controller keeps.

Observability: ``controller_ops_total{op,outcome}``,
``controller_queue_depth`` (ops queued across all tenants),
``controller_apply_ns{op}``, plus the ``wal_*`` series of an attached
log; every series carries the ``backend`` label.

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
from repro.errors import ConfigurationError, FaultError, ReproError
from repro.faults.injector import SimulatedCrash
from repro.rmt.packet import Packet
from repro.serving.backend import SwitchBackend, TableWrite, build_backend
from repro.serving.checkpoint import SwitchCheckpoint
from repro.serving.migration import LiveMigration
from repro.serving.ops import CONTROL_OPS, ControlOp, Homes
from repro.serving.wal import WalRecord, WriteAheadLog
from repro.tenancy.manager import Tenant, TenantSpec

__all__ = ["Controller"]

#: Reserved queue for switch-wide ops (checkpoint) — not a tenant name.
_CTL = "__ctl__"

#: Most ops one turn logs + applies: one group-commit frame.
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
    def solo(self) -> bool:
        """Logs at its own commit point, so it shares a WAL frame (and
        a turn) with no other op."""
        return self.spec is None or self.spec.gate is not None


class Controller:
    """Accepts concurrent control streams; applies them safely in order.

    Use as an async context manager (or call :meth:`aclose` yourself)::

        async with Controller(backend) as ctl:
            tenant = await ctl.add_tenant(spec)
            await ctl.update_resource(spec.name, 1, {"cpu": 10})

    Every submit method returns once its op has *applied* (or raised) on
    the backend, so a single client sees synchronous semantics while many
    clients interleave safely.

    ``wal``, a :class:`~repro.serving.wal.WriteAheadLog`, is the one
    option: every control op is appended durably before it applies.  Its
    ``crash_hook`` (the chaos harness's, see
    :meth:`repro.faults.injector.FaultInjector.arm_crash`) fires the
    ``wal.*`` sites once per frame and ``ctl.after_apply`` once per
    applied op.
    """

    def __init__(self, backend: SwitchBackend, *,
                 wal: WriteAheadLog | None = None):
        self._backend = backend
        self._wal = wal
        #: Each tenant's queued ops; the dict's order is the turn order.
        self._queues: dict[str, deque[_Op]] = {}
        self._queued = 0
        self._worker: asyncio.Task[None] | None = None
        self._wakeup = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._homes = Homes(backend)
        self._closed = False
        self._crashed = False
        self._registry = obs.get_registry()
        self._backend_label = backend.name
        self._series: dict[tuple[str, ...], Any] = {}
        self._depth = self._metric("controller_queue_depth")

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
            "gauge", (), "ops waiting in the control queue"),
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

    # -- crash sites -------------------------------------------------------------------

    def _crash(self, site: str, record: WalRecord | None) -> None:
        hook = None if self._wal is None else self._wal.crash_hook
        if hook is not None:
            hook(site, record)

    def _die(self, op: _Op, rest: list[_Op], exc: SimulatedCrash) -> None:
        """The armed crash fired on ``op``: the 'process' is dead.

        Reject the op it hit, the ``rest`` of its turn and everything
        still queued — none was acknowledged; a logged record among them
        may replay on recovery, exactly like ops a real crash would have
        stranded.  Stop the worker and abandon the WAL exactly as it is
        on disk — recovery reads the file, not us.
        """
        self._closed = self._crashed = True
        self._metric("controller_ops_total", op.kind, "crash").inc()
        if not op.future.cancelled():
            op.future.set_exception(exc)
        never_acked = [*rest, *(o for q in self._queues.values() for o in q)]
        self._queues.clear()
        self._queued = 0
        self._depth.set(0)
        self._idle.set()
        for pending in never_acked:
            if not pending.future.cancelled():
                pending.future.set_exception(FaultError(
                    "controller crashed before this op applied",
                    component="controller", resource=pending.tenant,
                ))
        if self._wal is not None:
            self._wal.close()

    # -- the serializer ----------------------------------------------------------------

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

    def _settle(self, op: _Op, *, exc: BaseException | None = None,
                result: Any = None) -> None:
        """Resolve one op's future and account its outcome."""
        if not op.future.cancelled():
            if exc is None:
                op.future.set_result(result)
            else:
                op.future.set_exception(exc)
        self._metric("controller_ops_total", op.kind,
                     "ok" if exc is None else "error").inc()
        self._metric("controller_apply_ns", op.kind).observe(
            time.perf_counter_ns() - op.enqueued_ns
        )

    def _process_group(self, batch: list[_Op]) -> bool:
        """Group-commit one turn's burst: log every op in a single WAL
        frame, then apply and acknowledge each in order.

        Returns ``False`` when a simulated crash killed the controller
        (the worker must exit).
        """
        # Write-ahead: every record in the frame is durable before the
        # first byte of backend state changes.  A solo op is alone in
        # its turn and logs inside its apply instead.
        if self._wal is not None and not batch[0].solo:
            try:
                logged = self._wal.append_group(
                    [(op.kind, op.tenant, op.spec.encode(op.payload))
                     for op in batch]
                )
            except SimulatedCrash as exc:
                self._die(batch[0], batch[1:], exc)
                return False
            except Exception as exc:  # noqa: BLE001 - relayed to callers
                for op in batch:
                    self._settle(op, exc=exc)
                return True
            for op, rec in zip(batch, logged, strict=True):
                op.record = rec
        for index, op in enumerate(batch):
            try:
                result = self._apply(op)
                self._crash("ctl.after_apply", op.record)
            except SimulatedCrash as exc:
                self._die(op, batch[index + 1:], exc)
                return False
            except Exception as exc:  # noqa: BLE001 - relayed to the caller
                self._settle(op, exc=exc)
                continue
            self._settle(op, result=result)
        return True

    async def _run(self) -> None:
        """The one worker: a turn per tenant with ops queued, in turn
        order, until the controller closes with nothing queued."""
        queues = self._queues
        while True:
            if not queues:
                self._idle.set()
                if self._closed:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            tenant = next(iter(queues))
            queue = queues.pop(tenant)
            batch = [queue.popleft()]
            while (queue and not batch[0].solo and not queue[0].solo
                   and len(batch) < _GROUP_COMMIT_MAX):
                batch.append(queue.popleft())
            if queue:
                queues[tenant] = queue  # to the back of the turn order
            self._queued -= len(batch)
            self._depth.set(self._queued)
            if not self._process_group(batch):
                return

    async def _submit(self, kind: str, tenant: str, payload: Any) -> Any:
        if self._closed:
            raise ConfigurationError("controller is closed")
        loop = asyncio.get_running_loop()
        op = _Op(kind, tenant, payload, loop.create_future(),
                 CONTROL_OPS.get(kind))
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
        queue.append(op)
        self._queued += 1
        self._depth.set(self._queued)
        self._idle.clear()
        self._wakeup.set()
        if self._worker is None:
            self._worker = loop.create_task(self._run())
        return await op.future

    # -- tenant lifecycle --------------------------------------------------------------

    async def add_tenant(self, spec: TenantSpec) -> Tenant:
        return await self._submit("add_tenant", spec.name, spec)

    async def remove_tenant(self, name: str) -> None:
        return await self._submit("remove_tenant", name, None)

    async def hot_swap(self, name: str, policy: Policy) -> int:
        return await self._submit("hot_swap", name, policy)

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
        routed through the op queues and *not* gated on ``closed``: the
        data path serves the last-good installed plans even while the
        control plane is busy or crashed."""
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

        Runs as a turn of its own, so every op logged before the record
        has applied (or failed) when the snapshot is taken: recovery
        restores the checkpoint and replays exactly the ops logged after
        it.  The record's args are the snapshot's payload plus the
        homing state, since who is migrating or moved is in no backend
        snapshot; it is durable, torn or absent exactly as any other
        frame.  Without a WAL this only returns the snapshot.
        """
        return await self._submit("checkpoint", _CTL, None)

    def _checkpoint(self) -> SwitchCheckpoint:
        snapshot = self._backend.snapshot()
        if self._wal is not None:
            self._wal.append("checkpoint", _CTL, {
                **snapshot.payload(), **self._homes.to_doc()})
        return snapshot

    # -- lifecycle ---------------------------------------------------------------------

    async def drain(self) -> None:
        """Wait for every queued op to apply."""
        await self._idle.wait()

    async def aclose(self) -> None:
        """Drain, stop the worker, log the clean-shutdown marker."""
        if self._closed:
            return
        self._closed = True
        if self._worker is not None:
            self._wakeup.set()
            await self._worker
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


#: Packets each smoke client sends after its hot-swap.
_SMOKE_PACKETS = 4


async def _smoke(backend_kind: str, writes: int) -> dict[str, object]:
    """Two concurrent clients: admit, stream writes, hot-swap, serve."""
    from repro.engine.batch import META_FILTER_OUTPUT, META_FILTER_REQUEST
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
            for _ in range(_SMOKE_PACKETS)
        ])
        return sum(META_FILTER_OUTPUT in p.metadata for p in served)

    async with Controller(backend) as ctl:
        served = await asyncio.gather(
            client(ctl, "alpha", "min"), client(ctl, "beta", "pred"),
        )
        await ctl.drain()
        health = backend.health()
    health["sent"] = len(served) * _SMOKE_PACKETS
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
    except ReproError as exc:
        print(f"# smoke on backend={args.backend}: op error: {exc!r}")
        return 1
    finally:
        obs.set_registry(previous)
    print(f"# smoke on backend={args.backend}: {health}")
    print(obs.to_prometheus(registry))
    return 0 if health["served"] == health["sent"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

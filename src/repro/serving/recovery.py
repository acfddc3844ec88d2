"""Idempotent, exactly-once recovery: checkpoint + WAL-suffix replay.

A controller that crashes leaves two artefacts on disk: the latest
:class:`~repro.serving.checkpoint.SwitchCheckpoint` (if one was ever
taken) and the write-ahead log.  :func:`recover` rebuilds a serving
backend from them:

1. **sweep** — stale ``*.tmp`` files from interrupted atomic writes are
   removed (:func:`repro.serving._atomic.cleanup_stale_tmp`);
2. **scan** — the WAL is read through :func:`repro.serving.wal.read_wal`,
   frame by frame.  Every frame is a group of one or more records for
   one tenant and is trusted whole or not at all: the first frame that
   fails its length, checksum or structure ends the trusted prefix and
   is counted (``wal_torn_records_total``).  A torn group loses all its
   records, never some — safe, because the controller acknowledges a
   group only after its frame is durable — and a durable group replays
   whole, including ops whose client never saw the ack.  A file that
   does not start with this build's ``v2`` magic is not read at all:
   the report carries ``header_ok=False`` (and ``torn=1`` if the file is
   non-empty), which tells it apart from a torn first frame; recovery
   never rewrites the file, and :class:`~repro.serving.wal.WriteAheadLog`
   refuses to open it.  A log whose last trusted record is not a clean
   ``shutdown`` marker witnesses a crash, counted as
   ``faults_detected_total{kind="controller_crash"}`` — the detection
   half of the chaos harness's injected==detected parity ledger;
3. **restore** — the newest ``checkpoint`` marker whose file still loads
   cleanly is restored tenant by tenant; its per-tenant op-id high-water
   mark seeds the exactly-once filter;
4. **replay** — every control record is dispatched to its registered
   handler in log order, *skipping* records at or below the tenant's
   high-water mark (already inside the checkpoint) — each op applies
   exactly once across the crash boundary.  Handlers see records, not
   frames: how ops were grouped on disk does not reach them.

Replay handlers are registered per op kind in :data:`REPLAY_HANDLERS`;
the TH016 lint (:func:`repro.analysis.replay.verify_replay_coverage`)
audits that every kind in
:data:`~repro.serving.wal.CONTROL_OP_KINDS` has one, so a new controller
op cannot ship without its recovery story.  Handlers decode record args
with the same codecs the controller encoded them with
(:func:`~repro.serving.checkpoint.spec_from_dict`,
:func:`~repro.serving.checkpoint.policy_from_dict`,
:meth:`TableWrite.from_dict <repro.serving.backend.TableWrite.from_dict>`).

Partially-applied multi-step ops resolve deterministically:

* a **hot-swap** whose record is durable is rolled *forward* — replay
  re-runs the whole compile-beside-and-install sequence (the in-memory
  install is atomic, so there is no half state to preserve);
* a **migration** treats the ``cutover`` record as its commit point:
  logged means moved (the tenant is evicted from the recovered source
  and every later op on it is skipped by the replay loop — it belongs
  to the destination's failure domain — until an ``add_tenant`` homes
  the name here again), not logged means rolled *back* (the tenant keeps
  serving on the recovered source; ``begin``/``abort`` replay as
  source-side no-ops because the destination's half lives in the
  destination's own log).
"""

from __future__ import annotations

import pathlib
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.errors import ReproError, WalError
from repro.serving._atomic import cleanup_stale_tmp
from repro.serving.backend import SwitchBackend, TableWrite
from repro.serving.checkpoint import (
    SwitchCheckpoint,
    load_checkpoint,
    policy_from_dict,
    spec_from_dict,
)
from repro.serving.wal import CONTROL_OP_KINDS, WalRecord, read_wal

__all__ = [
    "REPLAY_HANDLERS",
    "replay_handler",
    "RecoveryContext",
    "RecoveryReport",
    "recover",
]


@dataclass
class RecoveryContext:
    """Mutable replay state threaded through the handlers."""

    backend: SwitchBackend
    #: Tenants whose ``cutover`` record committed: evicted here, and any
    #: later op addressed to them belongs to the destination's domain —
    #: until the name is admitted here again.
    moved: set[str] = field(default_factory=set)


Handler = Callable[[RecoveryContext, WalRecord], None]

#: Replay dispatch table, one entry per control-op kind.  Append-only in
#: the same spirit as the rule registry: the TH016 lint fails the build
#: when a kind in CONTROL_OP_KINDS has no handler here.
REPLAY_HANDLERS: dict[str, Handler] = {}


def replay_handler(kind: str) -> Callable[[Handler], Handler]:
    """Register the replay handler for one WAL op kind."""

    def register(fn: Handler) -> Handler:
        if kind in REPLAY_HANDLERS:
            raise WalError(f"duplicate replay handler for kind {kind!r}")
        REPLAY_HANDLERS[kind] = fn
        return fn

    return register


@replay_handler("add_tenant")
def _replay_add_tenant(ctx: RecoveryContext, record: WalRecord) -> None:
    ctx.backend.program_tenant(spec_from_dict(record.args["spec"]))
    ctx.moved.discard(record.tenant)


@replay_handler("remove_tenant")
def _replay_remove_tenant(ctx: RecoveryContext, record: WalRecord) -> None:
    ctx.backend.unprogram_tenant(record.tenant)


@replay_handler("hot_swap")
def _replay_hot_swap(ctx: RecoveryContext, record: WalRecord) -> None:
    # Roll forward: the durable record re-runs the full compile-beside
    # and atomic install, landing on the same epoch the crashed run
    # would have acknowledged.
    ctx.backend.hot_swap(record.tenant,
                         policy_from_dict(record.args["policy"]))


@replay_handler("update_resource")
@replay_handler("remove_resource")
@replay_handler("write_batch")
def _replay_table_writes(ctx: RecoveryContext, record: WalRecord) -> None:
    docs = (record.args["writes"] if record.kind == "write_batch"
            else [record.args])
    ctx.backend.write_batch(
        [TableWrite.from_dict(record.tenant, doc) for doc in docs]
    )


@replay_handler("begin_migration")
def _replay_begin_migration(ctx: RecoveryContext, record: WalRecord) -> None:
    # Source-side no-op: begin() only *read* the source (checkpoint) and
    # mutated the destination, which recovers from its own log.  Without
    # a later cutover record the migration is rolled back by
    # construction — the tenant keeps serving here.
    return


@replay_handler("cutover")
def _replay_cutover(ctx: RecoveryContext, record: WalRecord) -> None:
    # The commit point: a durable cutover record means the move
    # happened.  Roll forward by releasing the source's half.
    ctx.backend.unprogram_tenant(record.tenant)
    ctx.moved.add(record.tenant)


@replay_handler("abort_migration")
def _replay_abort_migration(ctx: RecoveryContext, record: WalRecord) -> None:
    # Source-side no-op: abort tears down the destination's half only.
    return


@dataclass
class RecoveryReport:
    """What one :func:`recover` pass did, for asserts and ops dashboards."""

    backend: SwitchBackend
    replayed: int = 0
    skipped: int = 0
    torn: int = 0
    #: False when the file is missing or does not start with this
    #: build's WAL magic: nothing in it was read (``torn`` is then 1 for
    #: a non-empty file).  True with ``torn == 1`` is a torn frame.
    header_ok: bool = True
    unclean: bool = False
    checkpoint_path: str | None = None
    restored_tenants: int = 0
    errors: list[tuple[int, str, str]] = field(default_factory=list)

    def summary(self) -> dict[str, Any]:
        return {
            "replayed": self.replayed,
            "skipped": self.skipped,
            "torn": self.torn,
            "header_ok": self.header_ok,
            "unclean": self.unclean,
            "checkpoint_path": self.checkpoint_path,
            "restored_tenants": self.restored_tenants,
            "errors": list(self.errors),
        }


def _pick_checkpoint(
    records: tuple[WalRecord, ...], wal_dir: pathlib.Path
) -> tuple[SwitchCheckpoint | None, str | None, dict[str, int]]:
    """The newest checkpoint marker whose file still loads cleanly."""
    for record in reversed(records):
        if record.kind != "checkpoint":
            continue
        raw_path = pathlib.Path(str(record.args.get("path", "")))
        path = raw_path if raw_path.is_absolute() else wal_dir / raw_path
        try:
            checkpoint = load_checkpoint(path)
        except ReproError:
            continue  # corrupt or missing: fall back to an older one
        hwm = {str(t): int(op)
               for t, op in dict(record.args.get("hwm", {})).items()}
        return checkpoint, str(path), hwm
    return None, None, {}


def recover(
    wal_path: str | pathlib.Path,
    backend_factory: Callable[[SwitchCheckpoint | None], SwitchBackend],
) -> RecoveryReport:
    """Rebuild a backend from disk: checkpoint restore + WAL-suffix replay.

    ``backend_factory`` receives the chosen checkpoint (or ``None``) and
    must return an *empty* backend with matching geometry; recovery then
    restores the checkpointed tenants onto it and replays the suffix.
    Never raises for torn/corrupt WAL bytes; handler failures are caught,
    counted (``wal_replay_errors_total``), and reported — a deterministic
    re-raise of an op that failed identically before the crash must not
    abort the recovery of everything after it.
    """
    wal_path = pathlib.Path(wal_path)
    cleanup_stale_tmp(wal_path.parent)
    scan = read_wal(wal_path)
    registry = obs.get_registry()

    unclean = not scan.records or scan.records[-1].kind != "shutdown"
    if unclean:
        registry.counter(
            "faults_detected_total", {"kind": "controller_crash"},
            help="unclean controller shutdowns detected at recovery",
        ).inc()

    checkpoint, ckpt_path, hwm = _pick_checkpoint(scan.records,
                                                  wal_path.parent)
    backend = backend_factory(checkpoint)
    report = RecoveryReport(backend=backend, torn=scan.torn,
                            header_ok=scan.header_ok, unclean=unclean,
                            checkpoint_path=ckpt_path)
    ctx = RecoveryContext(backend=backend)
    if checkpoint is not None:
        for tenant_ckpt in checkpoint.tenants:
            backend.restore_tenant(tenant_ckpt)
            report.restored_tenants += 1

    obs_replayed = registry.counter(
        "wal_records_replayed_total", {},
        help="control ops re-applied from the WAL at recovery",
    )
    obs_skipped = registry.counter(
        "wal_replay_skipped_total", {},
        help="WAL records below the checkpoint high-water mark (or moved "
             "tenants) skipped at recovery",
    )
    obs_errors = registry.counter(
        "wal_replay_errors_total", {},
        help="replay handlers that raised (deterministic re-failures)",
    )

    for record in scan.records:
        if record.kind not in CONTROL_OP_KINDS:
            continue  # checkpoint/shutdown markers structure the log only
        if (record.op_id <= hwm.get(record.tenant, -1)
                or (record.tenant in ctx.moved
                    and record.kind != "add_tenant")):
            # Exactly-once: this op's effect is already inside the
            # restored checkpoint — or the tenant was cut over and the op
            # applied in the destination's failure domain, not ours.
            report.skipped += 1
            obs_skipped.inc()
            continue
        handler = REPLAY_HANDLERS.get(record.kind)
        if handler is None:
            raise WalError(
                f"no replay handler registered for op kind "
                f"{record.kind!r} (op {record.op_id}) — TH016 should have "
                "caught this at lint time",
                path=str(wal_path),
            )
        try:
            handler(ctx, record)
        except ReproError as exc:
            # The op failed before the crash too (apply errors are
            # deterministic); record and continue so one poisoned op
            # cannot block the recovery of every later one.
            report.errors.append((record.op_id, record.kind, repr(exc)))
            obs_errors.inc()
        else:
            report.replayed += 1
            obs_replayed.inc()
    return report

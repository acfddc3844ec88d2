"""Idempotent, exactly-once recovery: checkpoint restore + WAL-suffix replay.

A controller that crashes leaves one artefact on disk: the write-ahead
log.  A checkpoint is a record in it, not a file beside it, so
:func:`recover` opens no other file and rebuilds a serving backend in
three stages:

1. **scan** — the WAL is read through :func:`repro.serving.wal.read_wal`,
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
2. **restore** — the newest ``checkpoint`` record in the trusted prefix
   whose payload decodes (:meth:`SwitchCheckpoint.from_payload
   <repro.serving.checkpoint.SwitchCheckpoint.from_payload>`) is restored
   tenant by tenant; its per-tenant op-id high-water mark seeds the
   exactly-once filter, and the homing state it carries (who was
   migrating, who had moved) seeds the replay's
   :class:`~repro.serving.ops.Homes`.  A checkpoint torn with its frame
   is simply not in the prefix, so replay starts from an older one or
   from the first record;
3. **replay** — every control record above its tenant's high-water mark
   (the rest is already inside the checkpoint) runs, in log order,
   through its row of :data:`repro.serving.ops.CONTROL_OPS` — each op
   applies exactly once across the crash boundary.  Replay sees
   records, not frames: how ops were grouped on disk does not reach it.

The table is the only statement of what an op does: the live controller
logged ``encode(payload)`` and ran ``apply``; replay runs the *same*
``apply`` on ``decode(tenant, record.args)``, through the same homing
rule.  A kind cannot be logged without a replay (the logged kinds *are*
the table's keys), and the two cannot drift — which is why there is no
handler registry here and no lint auditing one.

What replay cannot do is reach a migration's destination: it is another
failure domain with its own log, and here it is an
:class:`~repro.serving.ops.Elsewhere`.  Partially-applied multi-step ops
resolve deterministically:

* a **hot-swap** whose record is durable is rolled *forward* — replay
  re-runs the whole compile-beside-and-install sequence (the in-memory
  install is atomic, so there is no half state to preserve), under the
  ``allow_semantic_change`` flag the record carries: a swap the live
  gate refused is refused again;
* a **migration** commits at its ``cutover`` record, which the
  controller appends only after the conservation gate has passed and
  before the source is evicted: logged means moved (the tenant is
  evicted from the recovered source, and every later op homed on the
  destination raises :class:`~repro.serving.ops.NotHere` and is skipped
  — until an ``add_tenant`` homes the name here again), not logged means
  rolled *back* (the tenant keeps serving on the recovered source).
  While dual-running, replay applies the source's half of every op and
  the ``Elsewhere`` absorbs the other.
"""

from __future__ import annotations

import pathlib
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.errors import CheckpointError, ReproError
from repro.serving.backend import SwitchBackend
from repro.serving.checkpoint import SwitchCheckpoint
from repro.serving.ops import CONTROL_OPS, Homes, NotHere
from repro.serving.wal import WalRecord, read_wal

__all__ = ["RecoveryReport", "recover"]


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
    #: Op id of the checkpoint record restored from, if any.
    checkpoint_op_id: int | None = None
    restored_tenants: int = 0
    errors: list[tuple[int, str, str]] = field(default_factory=list)

    def summary(self) -> dict[str, Any]:
        return {key: value for key, value in vars(self).items()
                if key != "backend"}


def _pick_checkpoint(
    records: tuple[WalRecord, ...],
) -> tuple[SwitchCheckpoint | None, WalRecord | None]:
    """The newest checkpoint record whose payload decodes, decoded."""
    for record in reversed(records):
        if record.kind == "checkpoint":
            try:
                return SwitchCheckpoint.from_payload(record.args), record
            except CheckpointError:
                continue  # e.g. a marker from before checkpoints were records
    return None, None


def recover(
    wal_path: str | pathlib.Path,
    backend_factory: Callable[[SwitchCheckpoint | None], SwitchBackend],
) -> RecoveryReport:
    """Rebuild a backend from the log: checkpoint restore + suffix replay.

    ``backend_factory`` receives the chosen checkpoint (or ``None``) and
    must return an *empty* backend with matching geometry; recovery then
    restores the checkpointed tenants onto it and replays the suffix.
    Never raises for torn/corrupt WAL bytes; an op that raises is caught,
    counted (``wal_replay_errors_total``), and reported — a deterministic
    re-raise of an op that failed identically before the crash must not
    abort the recovery of everything after it.
    """
    scan = read_wal(wal_path)
    registry = obs.get_registry()

    unclean = not scan.records or scan.records[-1].kind != "shutdown"
    if unclean:
        registry.counter(
            "faults_detected_total", {"kind": "controller_crash"},
            help="unclean controller shutdowns detected at recovery",
        ).inc()

    checkpoint, marker = _pick_checkpoint(scan.records)
    backend = backend_factory(checkpoint)
    report = RecoveryReport(backend=backend, torn=scan.torn,
                            header_ok=scan.header_ok, unclean=unclean)
    homes = Homes(backend)
    hwm: dict[str, int] = {}
    if checkpoint is not None and marker is not None:
        report.checkpoint_op_id = marker.op_id
        hwm = {str(t): int(op) for t, op in marker.args["hwm"].items()}
        for tenant_ckpt in checkpoint.tenants:
            backend.restore_tenant(tenant_ckpt)
            report.restored_tenants += 1
        homes.restore(marker.args)

    for record in scan.records:
        op = CONTROL_OPS.get(record.kind)
        if op is None:
            continue  # checkpoint/shutdown markers structure the log only
        # Exactly-once: at or below the mark the op's effect is already
        # inside the restored checkpoint...
        skip = record.op_id <= hwm.get(record.tenant, -1)
        try:
            if not skip:
                op.apply(homes, record.tenant,
                         op.decode(record.tenant, record.args))
        except NotHere:
            # ...and past a cutover it applied in the destination's
            # failure domain, not ours.
            skip = True
        except ReproError as exc:
            # The op failed before the crash too (apply errors are
            # deterministic); record and continue so one poisoned op
            # cannot block the recovery of every later one.
            report.errors.append((record.op_id, record.kind, repr(exc)))
            continue
        if skip:
            report.skipped += 1
        else:
            report.replayed += 1

    registry.counter(
        "wal_records_replayed_total", {},
        help="control ops re-applied from the WAL at recovery",
    ).inc(report.replayed)
    registry.counter(
        "wal_replay_skipped_total", {},
        help="WAL records below the checkpoint high-water mark (or moved "
             "tenants) skipped at recovery",
    ).inc(report.skipped)
    registry.counter(
        "wal_replay_errors_total", {},
        help="replayed ops that raised (deterministic re-failures)",
    ).inc(len(report.errors))
    return report

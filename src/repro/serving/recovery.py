"""Exactly-once recovery: checkpoint restore + replay of the log after it.

A controller that crashes leaves one artefact on disk: the write-ahead
log.  A checkpoint is a record in it, not a file beside it, so
:func:`recover` opens no other file and rebuilds a serving backend in
three stages:

1. **scan** — the WAL is read through one
   :class:`~repro.serving.wal.FrameReader`, one frame at a time, so
   memory is O(largest frame), never O(log): a byte pass checks only
   lengths and checksums and notes each frame whose payload contains
   ``"checkpoint"``; a decode pass validates frames in order up to the
   newest such candidate and notes each checkpoint record; stages 2 and
   3 then decode and apply the frames after the chosen one.  No record
   list is built, and a frame is decoded twice only when the newest
   candidate's checkpoint does not decode.  Every frame is a group of
   one or more records for one tenant and is trusted whole or not at
   all: the first frame that fails its length, checksum or structure
   ends the trusted prefix and is counted
   (``wal_torn_records_total``).  A torn group loses all its
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
   tenant by tenant, and the homing state it carries (who was migrating,
   who had moved) seeds the replay's :class:`~repro.serving.ops.Homes`.
   A checkpoint torn with its frame is simply not in the prefix, so
   replay starts from an older one or from the first record;
3. **replay** — every control record logged after the checkpoint record
   runs, in log order, through its row of
   :data:`repro.serving.ops.CONTROL_OPS`; every record logged before it
   is skipped.  The checkpoint's place in the log is its high-water
   mark: the controller's one worker logs and applies a turn without
   yielding, so every record logged before the checkpoint had applied
   (or failed) when the snapshot was taken — whichever tenant it names
   and whichever controller life wrote it.  Each op therefore applies
   exactly once across the crash boundary.  Replay sees records, not
   frames: how ops were grouped on disk does not reach it.  A ``hwm``
   key an older checkpoint record carries is ignored.

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
  install is atomic, so there is no half state to preserve), through
  the same gate: a swap the live gate refused is refused again;
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
from repro.serving.wal import WAL_MAGIC, FrameReader

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
    registry = obs.get_registry()
    with FrameReader(wal_path) as log:
        candidates = [offset for offset, payload in log.frames()
                      if b'"checkpoint"' in payload]
        # (frame offset, index in frame, control records before it) of
        # each checkpoint record up to the newest candidate.
        marks: list[tuple[int, int, int]] = []
        controls, held_at, held = 0, -1, None
        for offset, frame in log.trusted() if candidates else ():
            for index, kind in enumerate(frame.kinds):
                if kind == "checkpoint":
                    marks.append((offset, index, controls))
                controls += kind in CONTROL_OPS
            held_at, held = offset, frame
            if offset == candidates[-1]:
                break
        # The newest checkpoint record whose payload decodes; a frame is
        # decoded twice only when the newest candidate's does not.
        checkpoint, start, first, skipped = None, len(WAL_MAGIC), -1, 0
        for offset, index, before in reversed(marks):
            if offset != held_at:
                held_at, held = offset, next(log.trusted(offset))[1]
            try:  # a marker from before checkpoints were records fails
                checkpoint = SwitchCheckpoint.from_payload(held.args[index])
            except CheckpointError:
                continue
            start, first, skipped = offset, index, before
            break
        backend = backend_factory(checkpoint)
        report = RecoveryReport(backend=backend, header_ok=log.header_ok,
                                skipped=skipped)
        homes = Homes(backend)
        if checkpoint is not None:
            report.checkpoint_op_id = held.grp + first
            for tenant_ckpt in checkpoint.tenants:
                backend.restore_tenant(tenant_ckpt)
                report.restored_tenants += 1
            homes.restore(held.args[first])

        last = None
        for offset, frame in log.trusted(start):
            tenant = frame.tenant
            # Exactly-once: a record logged before the checkpoint has its
            # effect inside it already (and was counted as skipped).
            for index in range(first + 1 if offset == start else 0,
                               len(frame.kinds)):
                op = CONTROL_OPS.get(frame.kinds[index])
                if op is None:
                    continue  # checkpoint/shutdown markers structure the log
                try:
                    op.apply(homes, tenant,
                             op.decode(tenant, frame.args[index]))
                except NotHere:
                    # Past a cutover the op applied in the destination's
                    # failure domain, not ours.
                    report.skipped += 1
                except ReproError as exc:
                    # The op failed before the crash too (apply errors are
                    # deterministic); record and continue so one poisoned
                    # op cannot block the recovery of every later one.
                    report.errors.append(
                        (frame.grp + index, frame.kinds[index], repr(exc)))
                else:
                    report.replayed += 1
            last = frame.kinds[-1]
        report.torn = log.torn()

    report.unclean = last != "shutdown"
    if report.unclean:
        registry.counter(
            "faults_detected_total", {"kind": "controller_crash"},
            help="unclean controller shutdowns detected at recovery",
        ).inc()
    registry.counter(
        "wal_records_replayed_total", {},
        help="control ops re-applied from the WAL at recovery",
    ).inc(report.replayed)
    registry.counter(
        "wal_replay_skipped_total", {},
        help="WAL records logged before the checkpoint (or homed on a "
             "moved tenant's destination) skipped at recovery",
    ).inc(report.skipped)
    registry.counter(
        "wal_replay_errors_total", {},
        help="replayed ops that raised (deterministic re-failures)",
    ).inc(len(report.errors))
    return report

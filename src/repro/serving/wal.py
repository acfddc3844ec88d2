"""The checksummed, length-prefixed write-ahead op log.

Every control operation the controller applies — admit, evict, hot-swap,
resource update, table-write batch, migration begin/cutover/abort — is
assigned a monotonic op-id and appended here *before* it touches the
backend.  A controller crash therefore loses at most the ops it had not
yet acknowledged; everything acknowledged is on disk and is replayed by
:mod:`repro.serving.recovery` on restart.

On-disk format (binary, append-only)::

    header:  b"thanos-wal\\x00v2\\n"                     (14 bytes)
    frame:   u32 big-endian payload length
             payload (compact JSON, sorted keys)
             8-byte checksum (SHA-256 prefix of the payload)

There is one frame shape and one code path that writes it
(:meth:`WriteAheadLog.append_group`; :meth:`WriteAheadLog.append` is its
one-entry call).  A frame is a *group* of one or more records that share
a tenant and carry consecutive op-ids::

    {"grp": <first op id>, "tenant": ..., "kinds": [...], "args": [...]}

Record ``i`` of the frame is ``(grp + i, kinds[i], tenant, args[i])``.
The controller drains one tenant's queue per wakeup and logs the burst
as one frame — one encode, one write, one flush — so the envelope and
the flush amortize over the burst; a lone op is simply a group of one.
A burst that names two tenants is a caller bug and is refused
(:class:`~repro.errors.WalError`) before anything is written.

The checksum covers the payload bytes exactly as written and the reader
hashes what it reads back, never a re-encode, so no key normalization
is needed.  A frame is trusted only when its length is within
``_MAX_FRAME_BYTES`` and fits the file, its checksum matches, and its
payload validates structurally; the *first* untrusted frame ends the
trusted prefix — everything from it on is discarded and the truncation
is counted exactly once as ``wal_torn_records_total``.  A torn frame
loses *every* record in it, and that is safe: the controller
acknowledges a group's ops only after the whole frame is durable, so no
client was ever promised any of them.  The writer refuses a frame over
the bound (:class:`~repro.errors.WalError`, nothing written) rather
than acknowledge one its own reader would discard.

Two marker kinds ride in the same log next to the control ops:

* ``checkpoint`` — ``args`` *is* a
  :class:`~repro.serving.checkpoint.SwitchCheckpoint` payload, plus the
  per-tenant op-id high-water mark (``hwm``) and the homing state
  (``migrating``, ``moved``), so recovery restores the checkpoint and
  replays only the suffix.  There is no checkpoint file: this log is the
  one file recovery reads;
* ``shutdown`` — the controller closed cleanly; a log whose last record
  is anything else witnesses a crash (what recovery counts as
  ``faults_detected_total{kind="controller_crash"}``).

Opening: a missing or zero-length file is initialised with the header; a
file that starts with this build's magic is continued (torn tail cut
off, op-ids resumed).  Any *other* non-empty file — a foreign file, a
``v1`` log, a log with a damaged header — is refused with
:class:`~repro.errors.WalError` and left byte-for-byte untouched: it may
hold acknowledged ops, and overwriting it would destroy them.  The
magic's trailing ``v2`` is the format version; ``v1`` had a second,
single-record payload shape that this build neither writes nor reads.

Durability model: ``sync="flush"`` (the default) flushes each frame to
the OS before the append returns — durable across *process* crash, the
fault class the chaos harness injects.  ``sync="fsync"`` additionally
fsyncs for power-loss durability; ``sync="none"`` leaves buffering to
the file object (benchmarks only).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import struct
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any, NamedTuple

from repro import obs
from repro.errors import ConfigurationError, WalError
from repro.serving.ops import CONTROL_OPS

__all__ = [
    "WAL_MAGIC",
    "CONTROL_OP_KINDS",
    "MARKER_KINDS",
    "OP_KINDS",
    "WalRecord",
    "WalReadResult",
    "WriteAheadLog",
    "read_wal",
]

#: File header; the trailing ``v2`` is the format version — bump on any
#: incompatible frame or payload change.
WAL_MAGIC = b"thanos-wal\x00v2\n"

_LEN = struct.Struct(">I")
#: Bytes of the SHA-256 digest stored per frame.
_CHECKSUM_BYTES = 8
#: Largest frame payload the reader trusts, and so the writer accepts.
_MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Every control-op kind the controller logs: the keys of the control-op
#: table, so a kind that can be logged is a kind that can be replayed.
CONTROL_OP_KINDS = tuple(CONTROL_OPS)

#: Non-op records that structure the log rather than mutate the backend.
MARKER_KINDS = ("checkpoint", "shutdown")

OP_KINDS = CONTROL_OP_KINDS + MARKER_KINDS
#: O(1) membership for the append hot path.
_OP_KIND_SET = frozenset(OP_KINDS)


class WalRecord(NamedTuple):
    """One logged op: monotonic id, kind, owning tenant, JSON-safe args.

    A ``NamedTuple`` rather than a frozen dataclass: construction sits
    on the append hot path, and ``tuple.__new__`` costs a fraction of a
    frozen dataclass's per-field ``object.__setattr__``.
    """

    op_id: int
    kind: str
    tenant: str
    args: dict[str, Any]


def _decode_frame(payload: bytes) -> list[WalRecord]:
    """Unpack one frame's payload into its records (all or none)."""
    doc = json.loads(payload.decode())
    if not isinstance(doc, dict):
        raise WalError(f"structurally invalid WAL frame: {doc!r}")
    first = doc.get("grp")
    tenant = doc.get("tenant")
    kinds = doc.get("kinds")
    argses = doc.get("args")
    if (not isinstance(first, int) or not isinstance(tenant, str)
            or not isinstance(kinds, list) or not isinstance(argses, list)
            or not kinds or len(kinds) != len(argses)
            or not all(isinstance(k, str) for k in kinds)
            or not all(isinstance(a, dict) for a in argses)):
        raise WalError(f"structurally invalid WAL frame: {doc!r}")
    return [WalRecord(first + i, kinds[i], tenant, argses[i])
            for i in range(len(kinds))]


@dataclass(frozen=True)
class WalReadResult:
    """One pass over a log file: the trusted prefix plus tail forensics.

    ``torn`` is 1 when a torn or corrupt frame cut the scan short (and
    was counted as ``wal_torn_records_total``), 0 for a log that ends on
    a frame boundary.  ``valid_bytes`` is the byte length of the trusted
    prefix — what reopening the log truncates the file back to.
    ``header_ok`` is False when the file is missing or does not start
    with :data:`WAL_MAGIC` (nothing in it was read).
    """

    records: tuple[WalRecord, ...]
    valid_bytes: int
    torn: int
    header_ok: bool


#: One preconstructed encoder: ``json.dumps`` rebuilds its encoder per
#: call, which costs more than the encoding itself on the append path.
#: A plain sorted dump, not ``canonical_bytes``: json stringifies any int
#: dict key at write time and the reader hashes the bytes it reads, so
#: writer and reader agree without the normalization pass.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def read_wal(path: str | pathlib.Path) -> WalReadResult:
    """Scan a log, returning the trusted prefix and truncating nothing.

    Never raises on torn or corrupt bytes: the first frame that fails
    its length bound, checksum, JSON decode, or structural validation
    ends the trusted prefix, increments ``wal_torn_records_total`` once,
    and everything after it is ignored.  A missing file or an invalid
    header reads as an empty log (``header_ok=False``; a non-empty file
    with a bad header also counts as torn).
    """
    path = pathlib.Path(path)
    try:
        blob = path.read_bytes()
    except OSError:
        return WalReadResult((), 0, 0, False)

    def _torn() -> None:
        obs.get_registry().counter(
            "wal_torn_records_total", {},
            help="torn/corrupt WAL tails truncated at recovery",
        ).inc()

    if blob[:len(WAL_MAGIC)] != WAL_MAGIC:
        if blob:
            _torn()
            return WalReadResult((), 0, 1, False)
        return WalReadResult((), 0, 0, False)

    records: list[WalRecord] = []
    valid = len(WAL_MAGIC)
    torn = 0
    while valid < len(blob):
        offset = valid
        if offset + _LEN.size > len(blob):
            torn = 1
            break
        (length,) = _LEN.unpack_from(blob, offset)
        offset += _LEN.size
        if length > _MAX_FRAME_BYTES or offset + length + _CHECKSUM_BYTES > len(blob):
            torn = 1
            break
        payload = blob[offset:offset + length]
        offset += length
        stored = blob[offset:offset + _CHECKSUM_BYTES]
        offset += _CHECKSUM_BYTES
        if hashlib.sha256(payload).digest()[:_CHECKSUM_BYTES] != stored:
            torn = 1
            break
        try:
            records.extend(_decode_frame(payload))
        except (WalError, UnicodeDecodeError, json.JSONDecodeError):
            # A structurally-bad payload behind a good checksum is next
            # to impossible from bit rot; treat it like a torn frame so
            # recovery stays total either way.
            torn = 1
            break
        valid = offset
    if torn:
        _torn()
    return WalReadResult(tuple(records), valid, torn, True)


class WriteAheadLog:
    """Append-only op log with crash-point hooks for the chaos harness.

    ``crash_hook(site, record)`` — when set (by the fault injector) — is
    invoked at three sites per *frame*, on the same path every frame
    takes: ``wal.before_append`` (nothing durable yet),
    ``wal.torn_append`` (a crash here leaves *half* the frame on disk —
    the torn-tail generator), and ``wal.after_append`` (every record in
    the frame is durable, none applied).  Arming a hook never changes the
    bytes written.  ``record`` is the frame's *first* record: its
    ``op_id`` is the frame's ``grp``, which is how a fault ledger names
    the frame it killed.  A hook that raises aborts the append exactly as
    a process death at that point would.  A
    :class:`~repro.serving.controller.Controller` over this log fires
    its one site, ``ctl.after_apply``, through the same hook, so every
    crash site is on the log.
    """

    def __init__(self, path: str | pathlib.Path, *, sync: str = "flush",
                 crash_hook: Callable[[str, WalRecord | None], None]
                 | None = None):
        if sync not in ("none", "flush", "fsync"):
            raise ConfigurationError(
                f"sync must be none|flush|fsync, got {sync!r}"
            )
        self.path = pathlib.Path(path)
        self.sync = sync
        self.crash_hook = crash_hook
        registry = obs.get_registry()
        self._obs_appends = registry.counter(
            "wal_appends_total", {},
            help="records appended to the write-ahead log",
        )
        self._obs_bytes = registry.counter(
            "wal_bytes_written_total", {},
            help="bytes appended to the write-ahead log",
        )
        self._obs_frames = registry.counter(
            "wal_frames_total", {},
            help="frames written (a group-commit frame carries many "
                 "records; appends/frames is the mean group size)",
        )
        self._obs_fsync = registry.counter(
            "wal_fsync_total", {},
            help="fsync barriers issued by the write-ahead log",
        )
        existing = read_wal(self.path)
        if existing.header_ok:
            # Continue an existing log: drop any torn tail, then append.
            with open(self.path, "r+b") as fh:
                fh.truncate(existing.valid_bytes)
            self._next_op = (max(r.op_id for r in existing.records) + 1
                             if existing.records else 0)
            self._file = open(self.path, "ab")
        elif existing.torn:
            # Non-empty, but not our header.  Not ours to overwrite: it
            # may be an older-format log full of acknowledged ops, or
            # somebody else's file entirely.
            raise WalError(
                f"refusing to overwrite a non-empty file that does not "
                f"start with this build's WAL header {WAL_MAGIC!r}",
                path=str(self.path),
            )
        else:
            self._next_op = 0
            self._file = open(self.path, "wb")
            self._file.write(WAL_MAGIC)
            self._sync()
        self._closed = False

    def _sync(self) -> None:
        """Apply the durability mode to everything written so far."""
        if self.sync == "none":
            return
        self._file.flush()
        if self.sync == "fsync":
            os.fsync(self._file.fileno())
            self._obs_fsync.inc()

    # -- the one write path ------------------------------------------------------------

    @property
    def next_op_id(self) -> int:
        return self._next_op

    def append(self, kind: str, tenant: str,
               args: Mapping[str, Any] | None = None) -> WalRecord:
        """Log one op: a group of one."""
        return self.append_group([(kind, tenant, args)])[0]

    def append_group(
        self, entries: Sequence[tuple[str, str, Mapping[str, Any] | None]],
    ) -> list[WalRecord]:
        """Assign op-ids, frame the burst, make it durable.

        ``entries`` is ``[(kind, tenant, args), ...]`` in apply order, all
        for one tenant (the controller drains per-tenant queues, so this
        is free).  Every op gets its own consecutive op-id; the burst
        shares a single envelope, JSON encode, checksum, write, and flush
        — the per-frame costs that dominate a one-op append amortize
        across the group.  This sits on every control op's latency path
        (append *before* apply), so the body stays flat.
        """
        if not entries:
            return []
        if self._closed:
            raise WalError("write-ahead log is closed", path=str(self.path))
        tenant = entries[0][1]
        kinds: list[str] = []
        argses: list[dict[str, Any]] = []
        for kind, owner, args in entries:
            if kind not in _OP_KIND_SET:
                raise WalError(f"unknown WAL op kind {kind!r}",
                               path=str(self.path))
            if owner != tenant:
                raise WalError(
                    f"one WAL frame holds one tenant's ops, got both "
                    f"{tenant!r} and {owner!r}", path=str(self.path))
            kinds.append(kind)
            argses.append(dict(args) if args else {})
        first = self._next_op
        records = [WalRecord(first + i, kinds[i], tenant, argses[i])
                   for i in range(len(kinds))]
        payload = _ENCODE({"grp": first, "tenant": tenant,
                           "kinds": kinds, "args": argses}).encode()
        if len(payload) > _MAX_FRAME_BYTES:
            raise WalError(
                f"a {len(payload)}-byte WAL frame exceeds the "
                f"{_MAX_FRAME_BYTES}-byte bound its reader trusts",
                path=str(self.path))
        checksum = hashlib.sha256(payload).digest()[:_CHECKSUM_BYTES]
        frame = _LEN.pack(len(payload)) + payload + checksum
        file = self._file
        hook = self.crash_hook
        if hook is not None:
            hook("wal.before_append", records[0])
            try:
                hook("wal.torn_append", records[0])
            except BaseException:
                # Simulated mid-write death: half the frame reaches the
                # disk before the process dies — the torn tail recovery
                # truncates.
                file.write(frame[: max(1, len(frame) // 2)])
                file.flush()
                raise
        file.write(frame)
        self._sync()
        self._next_op += len(records)
        self._obs_appends.inc(len(records))
        self._obs_frames.inc()
        self._obs_bytes.inc(len(frame))
        if hook is not None:
            hook("wal.after_append", records[0])
        return records

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._file.flush()
            self._file.close()

    def __enter__(self) -> WriteAheadLog:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

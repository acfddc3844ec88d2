"""The backend-neutral serving core.

Layers, bottom up:

* :mod:`repro.serving.checkpoint` — bit-faithful tenant/switch state
  capture and its canonical encoding (the live policy is the
  :func:`~repro.core.policy.policy_to_dict` document, re-exported here);
  a checkpoint is logged as a WAL record, it has no file of its own;
* :mod:`repro.serving.backend` — :class:`SwitchBackend`, the contract a
  control plane programs against, implemented once; its two subclasses
  (:class:`ScalarBackend`, :class:`BatchedBackend`) differ only in how
  a run of data packets is served;
* :mod:`repro.serving.migration` — zero-loss live migration of a tenant
  between two switch instances (checkpoint → dual-running → atomic
  cutover on an SMBM version boundary, gated by the TH015 diff of the
  two tenant payloads);
* :mod:`repro.serving.ops` — the control-op table: each op's WAL
  spelling and its effect, stated once, and the homing rule
  (:class:`Homes`) it applies through;
* :mod:`repro.serving.wal` — the checksummed, length-prefixed
  write-ahead op log every control op is appended to before it applies,
  and the one file recovery reads;
* :mod:`repro.serving.recovery` — idempotent crash recovery: restore
  from the newest checkpoint record plus exactly-once replay of the
  log's suffix through the op table;
* :mod:`repro.serving.breaker` — the per-tenant control-plane circuit
  breaker;
* :mod:`repro.serving.controller` — the asyncio control plane: many
  concurrent clients, per-tenant total order, serialized admission,
  write-ahead durability, deadlines/retry/breaker/load-shedding, all
  through the same table.

Quickstart: ``python -m repro.serving.controller --backend batched``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.policy import policy_from_dict, policy_to_dict
from repro.serving.backend import (
    BatchedBackend,
    ScalarBackend,
    SwitchBackend,
    TableWrite,
    build_backend,
)
from repro.serving.breaker import (
    BreakerState,
    CircuitBreaker,
    CircuitBreakerConfig,
)
from repro.serving.checkpoint import (
    SwitchCheckpoint,
    TenantCheckpoint,
    canonical_bytes,
    spec_from_dict,
    spec_to_dict,
)
from repro.serving.migration import LiveMigration, MigrationState
from repro.serving.ops import CONTROL_OPS
from repro.serving.recovery import RecoveryReport, recover
from repro.serving.wal import (
    CONTROL_OP_KINDS,
    WalRecord,
    WriteAheadLog,
    read_wal,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.controller import Controller


def __getattr__(name: str) -> object:
    # Lazy: ``python -m repro.serving.controller`` first imports this
    # package; an eager controller import here would land the module in
    # sys.modules before runpy executes it as __main__ (RuntimeWarning).
    if name == "Controller":
        from repro.serving.controller import Controller

        return Controller
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BatchedBackend",
    "BreakerState",
    "CircuitBreaker",
    "CircuitBreakerConfig",
    "CONTROL_OPS",
    "CONTROL_OP_KINDS",
    "Controller",
    "LiveMigration",
    "MigrationState",
    "RecoveryReport",
    "ScalarBackend",
    "SwitchBackend",
    "SwitchCheckpoint",
    "TableWrite",
    "TenantCheckpoint",
    "WalRecord",
    "WriteAheadLog",
    "build_backend",
    "canonical_bytes",
    "policy_from_dict",
    "policy_to_dict",
    "read_wal",
    "recover",
    "spec_from_dict",
    "spec_to_dict",
]

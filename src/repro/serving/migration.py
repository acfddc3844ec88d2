"""Zero-loss live migration of a tenant between two switch instances.

The state machine::

    IDLE ──begin()──▶ DUAL_RUNNING ──cutover()──▶ COMPLETE
                           │
                        abort()
                           ▼
                        ABORTED

* **begin** — checkpoint the tenant on the source (its SMBM at version
  ``V``), recreate it on the destination (admit the live policy, restore
  the table bit-faithfully, re-stamp the epoch watermark).  Both tables
  now read identically at version ``V``.
* **dual-running** — every table write flows through
  :meth:`LiveMigration.apply_write` / :meth:`remove`, which applies it to
  *both* instances.  Starting from identical state at the same version,
  identical write sequences keep the two version counters in lockstep —
  the invariant the cutover gate checks.  Data packets keep being served
  by the source: no packet is ever dropped or double-served.
* **cutover** — an atomic flip on an SMBM version boundary: the gate
  asserts the two version counters agree and the two exported table
  states are bit-identical (rows, FIFO order, version counter — the
  conservation assert), then the tenant is evicted from the source.  From
  the next packet on, the destination serves — over a table
  provably equal to the one the source would have served from.

Anything out of order (a write slipping past the dual-running gate, a
divergent version at cutover) raises
:class:`~repro.errors.IntegrityError` and the migration can be
:meth:`abort`-ed, returning the destination's half to the pools with the
source still serving — the failure mode is "migration didn't happen",
never "tenant lost".
"""

from __future__ import annotations

import enum
from collections.abc import Mapping

from repro import obs
from repro.analysis.symbolic import SemanticChange, semantic_diff
from repro.analysis.verifier import TableSchema
from repro.errors import ConfigurationError, IntegrityError
from repro.serving.backend import SwitchBackend
from repro.serving.checkpoint import TenantCheckpoint

__all__ = ["MigrationState", "LiveMigration"]


class MigrationState(enum.Enum):
    IDLE = "idle"
    DUAL_RUNNING = "dual-running"
    COMPLETE = "complete"
    ABORTED = "aborted"


class LiveMigration:
    """One tenant's move from ``source`` to ``dest``.

    Single-use: a completed or aborted migration cannot be restarted —
    build a new one.
    """

    def __init__(self, source: SwitchBackend, dest: SwitchBackend,
                 tenant: str):
        if source is dest:
            raise ConfigurationError(
                "live migration needs two distinct switch instances"
            )
        self._source = source
        self._dest = dest
        self._tenant = tenant
        self._state = MigrationState.IDLE
        self._checkpoint: TenantCheckpoint | None = None
        self._dual_writes = 0
        registry = obs.get_registry()
        self._obs_outcomes = {
            outcome: registry.counter(
                "tenant_migrations_total", {"outcome": outcome},
                help="live tenant migrations, by outcome",
            )
            for outcome in ("complete", "aborted")
        }
        self._obs_dual_writes = registry.counter(
            "migration_dual_writes_total", {},
            help="table writes applied to both instances while dual-running",
        )
        # The cutover gate is a detector in the chaos-parity sense: every
        # trip means a write or hot-swap reached one instance only.
        self._obs_gate_detected = registry.counter(
            "faults_detected_total", {"kind": "migration_divergence"},
            help="cutover conservation-gate trips (source/dest diverged)",
        )

    @property
    def state(self) -> MigrationState:
        return self._state

    @property
    def source(self) -> SwitchBackend:
        return self._source

    @property
    def dest(self) -> SwitchBackend:
        return self._dest

    @property
    def tenant(self) -> str:
        return self._tenant

    @property
    def checkpoint(self) -> TenantCheckpoint | None:
        """The begin()-time checkpoint (None before begin)."""
        return self._checkpoint

    @property
    def dual_writes(self) -> int:
        """Writes applied to both instances while dual-running."""
        return self._dual_writes

    def _require(self, state: MigrationState, op: str) -> None:
        if self._state is not state:
            raise ConfigurationError(
                f"cannot {op} a migration in state {self._state.value!r} "
                f"(requires {state.value!r})"
            )

    def _module(self, backend: SwitchBackend):
        manager = getattr(backend, "manager", None)
        if manager is None:  # pragma: no cover - defensive
            raise ConfigurationError(
                "backend exposes no tenant manager; cannot dual-write"
            )
        return manager.get(self._tenant).module

    # -- phase 1: checkpoint + restore -------------------------------------------------

    def begin(self) -> TenantCheckpoint:
        """Checkpoint on the source, restore on the destination, enter
        dual-running.  The source keeps serving throughout."""
        self._require(MigrationState.IDLE, "begin")
        ckpt = self._source.snapshot_tenant(self._tenant)
        self._dest.restore_tenant(ckpt)
        self._checkpoint = ckpt
        self._state = MigrationState.DUAL_RUNNING
        return ckpt

    # -- phase 2: the dual-running gate ------------------------------------------------

    def apply_write(self, resource_id: int,
                    metrics: Mapping[str, int]) -> None:
        """Apply one table update to both instances, in lockstep."""
        self._require(MigrationState.DUAL_RUNNING, "dual-write through")
        self._module(self._source).update_resource(resource_id, metrics)
        self._module(self._dest).update_resource(resource_id, metrics)
        self._dual_writes += 1
        self._obs_dual_writes.inc()

    def remove(self, resource_id: int) -> None:
        """Apply one table delete to both instances, in lockstep."""
        self._require(MigrationState.DUAL_RUNNING, "dual-write through")
        self._module(self._source).remove_resource(resource_id)
        self._module(self._dest).remove_resource(resource_id)
        self._dual_writes += 1
        self._obs_dual_writes.inc()

    # -- phase 3: atomic cutover -------------------------------------------------------

    def cutover(self) -> dict[str, object]:
        """Flip serving to the destination on an SMBM version boundary.

        The conservation gate: the two version counters must agree (no
        write slipped past the dual-running gate on either side) and the
        two exported table states must be bit-identical — stored rows,
        FIFO enqueue order, version counter.  Only then is the tenant
        evicted from the source.  On gate failure the migration stays
        dual-running (nothing is torn down) and
        :class:`~repro.errors.IntegrityError` reports the divergence.
        """
        self._require(MigrationState.DUAL_RUNNING, "cut over")
        src = self._module(self._source)
        dst = self._module(self._dest)
        src_version = src.smbm.version
        dst_version = dst.smbm.version
        if src_version != dst_version:
            self._obs_gate_detected.inc()
            raise IntegrityError(
                f"migration cutover gate: source at SMBM version "
                f"{src_version} but destination at {dst_version} — a "
                "write bypassed the dual-running gate",
                component="migration",
            )
        src_state = src.smbm.export_state()
        dst_state = dst.smbm.export_state()
        if src_state != dst_state:
            self._obs_gate_detected.inc()
            raise IntegrityError(
                "migration cutover gate: table states diverge at version "
                f"{src_version} despite matching counters",
                component="migration",
            )
        if src.plan_epoch != dst.plan_epoch:
            self._obs_gate_detected.inc()
            raise IntegrityError(
                f"migration cutover gate: plan epoch {src.plan_epoch} on "
                f"source vs {dst.plan_epoch} on destination — a hot-swap "
                "landed on one side only",
                component="migration",
            )
        # Epoch counters can agree while the policies differ (the same
        # number of swaps landed on each side, but to different plans).
        # The semantic gate compares what the two plans *admit*: the
        # feasible match regions must be identical before the flip.
        schema = TableSchema(src.smbm.capacity, src.smbm.metric_names)
        diff = semantic_diff(src.policy, dst.policy, schema=schema)
        if diff.change is not SemanticChange.EQUIVALENT:
            self._obs_gate_detected.inc()
            raise IntegrityError(
                "migration cutover gate: source and destination policies "
                f"are not semantically equivalent ({diff.describe()}) — "
                "the destination would admit a different match region",
                component="migration",
            )
        self._source.unprogram_tenant(self._tenant)
        self._state = MigrationState.COMPLETE
        self._obs_outcomes["complete"].inc()
        return {
            "tenant": self._tenant,
            "cutover_version": src_version,
            "plan_epoch": dst.plan_epoch,
            "dual_writes": self._dual_writes,
            "rows": len(dst.smbm),
        }

    def abort(self) -> None:
        """Tear down the destination's half; the source keeps serving."""
        self._require(MigrationState.DUAL_RUNNING, "abort")
        self._dest.unprogram_tenant(self._tenant)
        self._state = MigrationState.ABORTED
        self._obs_outcomes["aborted"].inc()

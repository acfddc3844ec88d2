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
* **dual-running** — the migration is the tenant's *home*: it has the
  per-tenant half of the backend contract
  (:meth:`~LiveMigration.write_batch`, :meth:`~LiveMigration.hot_swap`,
  :meth:`~LiveMigration.unprogram_tenant`) and applies each op to the
  source, then the destination, through their own methods.  Starting
  from identical state, identical op sequences keep the two instances
  in lockstep — the invariant the cutover gate checks.  An op the
  source refuses never reaches the destination; one only the
  destination refuses leaves the two apart, which is what the gate
  reports.  Data packets keep being served by the source: no packet is
  ever dropped or double-served.
* **cutover** — an atomic flip on an SMBM version boundary: the gate
  snapshots the tenant on both sides and asks the TH015 conformance diff
  (:func:`repro.analysis.conformance.diff_tenant_payloads`) whether the
  two payloads — table rows, FIFO order, version counter, live policy,
  epoch watermark, admission spec, and whatever a tenant's state grows
  next — are identical, then the tenant is evicted from the source.
  From the next packet on, the destination serves — over state provably
  equal to what the source would have served from.

Anything out of order (a write or hot-swap slipping past the migration
onto one side only) raises :class:`~repro.errors.IntegrityError` naming
every divergent facet, and the migration can be
:meth:`abort`-ed, returning the destination's half to the pools with the
source still serving — the failure mode is "migration didn't happen",
never "tenant lost".
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from repro import obs
from repro.analysis.conformance import diff_tenant_payloads
from repro.core.policy import Policy
from repro.errors import ConfigurationError, IntegrityError
from repro.serving.backend import SwitchBackend, TableWrite
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

    def _require(self, state: MigrationState, op: str,
                 tenant: str | None = None) -> None:
        if self._state is not state:
            raise ConfigurationError(
                f"cannot {op} a migration in state {self._state.value!r} "
                f"(requires {state.value!r})"
            )
        if tenant is not None and tenant != self._tenant:
            raise ConfigurationError(
                f"cannot {op} tenant {tenant!r}: this migration moves "
                f"{self._tenant!r}"
            )

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

    # -- phase 2: dual-running, the tenant's home is both instances --------------------

    def write_batch(self, writes: Iterable[TableWrite]) -> int:
        """Apply each table write to the source, then the destination."""
        applied = 0
        for write in writes:
            self._require(MigrationState.DUAL_RUNNING, "dual-write",
                          write.tenant)
            self._source.write_batch([write])
            self._dest.write_batch([write])
            applied += 1
            self._dual_writes += 1
            self._obs_dual_writes.inc()
        return applied

    def hot_swap(self, name: str, policy: Policy) -> int:
        """Swap the policy on the source, then the destination; both land
        on the same epoch, which is returned."""
        self._require(MigrationState.DUAL_RUNNING, "hot-swap", name)
        self._source.hot_swap(name, policy)
        return self._dest.hot_swap(name, policy)

    def unprogram_tenant(self, name: str) -> None:
        """Evict the tenant from both instances: nothing is left to move,
        so the migration ends aborted."""
        self._require(MigrationState.DUAL_RUNNING, "evict", name)
        self._source.unprogram_tenant(name)
        self.abort()

    # -- phase 3: atomic cutover -------------------------------------------------------

    def gate(self) -> dict[str, object]:
        """The conservation gate: both instances are snapshotted and their
        payloads must be TH015-clean — every key of a tenant's state
        bit-identical.  Returns the cutover stats.  On failure the
        migration stays dual-running (nothing is torn down) and one
        :class:`~repro.errors.IntegrityError` reports every divergent
        facet.
        """
        self._require(MigrationState.DUAL_RUNNING, "cut over")
        moved = self._dest.snapshot_tenant(self._tenant)
        # Unit state is not compared: the source steps its units until
        # the flip, and they move with the commit (:meth:`complete`).
        source, dest = (
            {k: v for k, v in ckpt.payload().items() if k != "units"}
            for ckpt in (self._source.snapshot_tenant(self._tenant), moved))
        report = diff_tenant_payloads(source, dest, subject=self._tenant)
        if not report.clean:
            self._obs_gate_detected.inc()
            raise IntegrityError(
                "migration cutover gate: an op reached one instance only — "
                + report.describe(),
                component="migration",
            )
        return {
            "tenant": self._tenant,
            "cutover_version": moved.smbm_state["version"],
            "plan_epoch": moved.plan_epoch,
            "dual_writes": self._dual_writes,
            "rows": len(moved.smbm_state["rows"]),
        }

    def complete(self) -> None:
        """Move the tenant's unit state to the destination and evict the
        tenant from the source: the destination serves it from here on.
        :meth:`gate` vouches for the rest; a caller that logs the move
        does so between the two."""
        self._require(MigrationState.DUAL_RUNNING, "cut over")
        self._dest.restore_units(self._tenant,
                                 self._source.export_units(self._tenant))
        self._source.unprogram_tenant(self._tenant)
        self._state = MigrationState.COMPLETE
        self._obs_outcomes["complete"].inc()

    def cutover(self) -> dict[str, object]:
        """Flip serving to the destination on an SMBM version boundary:
        :meth:`gate`, then :meth:`complete`."""
        stats = self.gate()
        self.complete()
        return stats

    def abort(self) -> None:
        """Tear down the destination's half; the source keeps serving."""
        self._require(MigrationState.DUAL_RUNNING, "abort")
        self._dest.unprogram_tenant(self._tenant)
        self._state = MigrationState.ABORTED
        self._obs_outcomes["aborted"].inc()

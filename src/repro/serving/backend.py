"""Backend-neutral serving: one interface, two conforming switch paths.

:class:`SwitchBackend` is the contract the control plane programs against:
tenant lifecycle (program / unprogram / hot-swap), table write-batches,
packet serving (one door, :meth:`SwitchBackend.process_batch`; a single
packet is a batch of one), checkpoint / restore, and a health probe.
Everything above this interface — the asyncio
:class:`~repro.serving.controller.Controller`, live migration, the chaos
harness — is written once and runs unchanged on any backend.

Two backends conform today, both multiplexing tenants over one
:class:`~repro.switch.thanos_switch.ThanosSwitch`:

* :class:`BatchedBackend` — the columnar engine path: one classifying
  pass over the batch, then each tenant's run of rows as one mask column
  through its module's ``evaluate_masks`` (a memo broadcast, the kernel,
  or the row routine while the Cells take rows), the outputs written
  straight onto the packets, in runs cut only by that tenant's own probes;
* :class:`ScalarBackend` — the same pass with every run evaluated one row
  at a time, each row as a batch of its own would get it.  It runs the
  batched path's code, so it checks that cutting a run changes no output;
  it is no independent reference.

Both refuse a batch by one rule, before any probe commits or any row is
served: :func:`~repro.tenancy.demux.classify`, the switch's first pass —
every routing violation in one :class:`~repro.errors.RoutingError`, else
the first malformed mask or out-of-quota probe id.  The rest of the shared
machinery — admission, the epoch watermark stamped on filter outputs,
serving-cache resets on plan or table change — lives in
:class:`SwitchBackend` itself (and below it, in
:class:`~repro.switch.filter_module.FilterModule`), so the backends
differ *only* in how a run is evaluated (:attr:`SwitchBackend.switch_cls`).
That is what the conformance suite checks: same inputs, same outputs, same
error types, same observability series (distinguished only by the
``backend`` label).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from typing import Any

from repro import obs
from repro.core.policy import Policy
from repro.errors import ConfigurationError
from repro.rmt.packet import Packet
from repro.serving.checkpoint import (
    SwitchCheckpoint,
    TenantCheckpoint,
    spec_from_dict,
    spec_to_dict,
)
from repro.switch.filter_module import FilterModule
from repro.switch.thanos_switch import ThanosSwitch, _write_run
from repro.tenancy.manager import Tenant, TenantManager, TenantSpec

__all__ = [
    "TableWrite",
    "SwitchBackend",
    "ScalarBackend",
    "BatchedBackend",
    "build_backend",
]


@dataclass(frozen=True)
class TableWrite:
    """One resource-table mutation addressed to a tenant.

    ``metrics=None`` deletes the resource; otherwise the write is the
    composite delete+add update of section 5.1.2.

    :meth:`to_dict` / :meth:`from_dict` are the write's one persisted
    spelling (WAL records carry it): ``{"resource_id": n, "metrics":
    {...}}``, the ``metrics`` key absent for a delete.  The tenant is not
    part of it — it rides in the enclosing record's envelope.
    """

    tenant: str
    resource_id: int
    metrics: Mapping[str, int] | None = None

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"resource_id": self.resource_id}
        if self.metrics is not None:
            doc["metrics"] = dict(self.metrics)
        return doc

    @classmethod
    def from_dict(cls, tenant: str, raw: Mapping[str, Any]) -> TableWrite:
        metrics = raw.get("metrics")
        return cls(tenant, int(raw["resource_id"]),
                   None if metrics is None
                   else {str(k): int(v) for k, v in metrics.items()})


class SwitchBackend:
    """The serving contract a control plane programs against, implemented
    once over a :class:`TenantManager` and the :class:`ThanosSwitch`
    that demuxes its tenants.

    Subclasses set only :attr:`name` and :attr:`switch_cls`; every switch
    class starts a batch with the same whole-batch check (module
    docstring), so they present identical all-or-nothing batch admission
    regardless of how they serve.
    """

    #: Short identifier used as the ``backend`` label on obs series.
    name: str = "abstract"
    #: The switch the backend serves through.
    switch_cls: type[ThanosSwitch] = ThanosSwitch

    def __init__(self, manager: TenantManager):
        self._manager = manager
        self._switch = self.switch_cls(manager)
        registry = obs.get_registry()
        labels = {"backend": self.name}
        self._obs_packets = registry.counter(
            "backend_packets_total", labels,
            help="packets served through the backend",
        )
        self._obs_writes = registry.counter(
            "backend_table_writes_total", labels,
            help="table writes applied through write_batch",
        )
        self._obs_snapshots = registry.counter(
            "backend_snapshots_total", labels,
            help="tenant checkpoints captured",
        )
        self._obs_restores = registry.counter(
            "backend_restores_total", labels,
            help="tenants recreated from checkpoints",
        )

    # -- introspection -----------------------------------------------------------------

    @property
    def manager(self) -> TenantManager:
        """The admission path every tenant-lifecycle op serializes through.
        Part of the contract: migration's fault injection, the chaos
        harness and the benchmark harness read tenants through it."""
        return self._manager

    @property
    def switch(self) -> ThanosSwitch:
        return self._switch

    # -- tenant lifecycle --------------------------------------------------------------

    def program_tenant(self, spec: TenantSpec) -> Tenant:
        """Admit and program a tenant; static TH013/TH014 gates apply."""
        return self._manager.admit(spec)

    def unprogram_tenant(self, name: str) -> None:
        """Evict a tenant, returning its slice to the free pools."""
        self._manager.evict(name)

    def hot_swap(self, name: str, policy: Policy) -> int:
        """Hitlessly replace a tenant's policy; returns the new epoch.
        The manager's gate refuses a replacement with any TH017–TH019
        finding or one that escapes the tenant's slice."""
        return self._manager.hot_swap(name, policy)

    # -- table maintenance -------------------------------------------------------------

    def write_batch(self, writes: Iterable[TableWrite]) -> int:
        """Apply table writes in order; returns the count applied."""
        applied = 0
        for write in writes:
            module = self._manager.get(write.tenant).module
            if write.metrics is None:
                module.remove_resource(write.resource_id)
            else:
                module.update_resource(write.resource_id, write.metrics)
            applied += 1
        self._obs_writes.inc(applied)
        return applied

    # -- serving -----------------------------------------------------------------------

    def process_batch(self, packets: Sequence[Packet]) -> list[Packet]:
        """Serve a packet stream (probes and data), preserving per-packet
        semantics: the one packet door."""
        out = self._switch.process_batch(packets)
        self._obs_packets.inc(len(packets))
        return out

    # -- checkpoint / restore ----------------------------------------------------------

    def snapshot_tenant(self, name: str) -> TenantCheckpoint:
        """Capture one tenant's complete serving state."""
        tenant = self._manager.get(name)
        spec = spec_to_dict(replace(
            tenant.spec,
            # The live policy, not the admitted one: hot-swaps must
            # survive a checkpoint.
            policy=tenant.module.policy,
            # Count, not physical indices: the destination allocates its
            # own strip, and snapshots stay comparable across switches.
            columns=len(tenant.columns),
        ))
        units = tenant.module.export_units()
        if units is not None:  # stateless payloads keep their bytes
            spec["units"] = units
        ckpt = TenantCheckpoint(
            spec=spec,
            smbm_state=tenant.module.smbm.export_state(),
            plan_epoch=tenant.module.plan_epoch,
        )
        self._obs_snapshots.inc()
        return ckpt

    def restore_tenant(self, ckpt: TenantCheckpoint) -> Tenant:
        """Recreate a tenant from a checkpoint: admit its spec, restore
        its table bit-faithfully and its unit state, re-stamp its epoch
        watermark."""
        tenant = self._manager.admit(spec_from_dict(ckpt.spec))
        try:
            tenant.module.restore_table(
                ckpt.smbm_state, plan_epoch=ckpt.plan_epoch
            )
            tenant.module.restore_units(ckpt.units)
        except Exception:
            # Never leave a half-restored tenant serving: a tenant that
            # admitted but failed to restore is evicted before the error
            # propagates.
            self._manager.evict(tenant.name)
            raise
        self._obs_restores.inc()
        return tenant

    def export_units(self, name: str) -> dict | None:
        """One tenant's unit state (:attr:`TenantCheckpoint.units`): what
        a live migration moves when it commits."""
        return self._manager.get(name).module.export_units()

    def restore_units(self, name: str, units: dict | None) -> None:
        self._manager.get(name).module.restore_units(units)

    def snapshot(self) -> SwitchCheckpoint:
        """Capture the whole switch: geometry plus every tenant."""
        return SwitchCheckpoint.build(
            self._manager.metric_names,
            self._manager.params,
            self._manager.smbm_capacity,
            [self.snapshot_tenant(t.name) for t in self._manager],
        )

    # -- health ------------------------------------------------------------------------

    def health(self) -> dict[str, object]:
        """A liveness/degradation summary for the control plane."""
        degraded = sorted(
            t.name for t in self._manager if t.module.cells.degraded
        )
        return {
            "backend": self.name,
            "healthy": not degraded,
            "tenants": len(self._manager),
            "degraded_tenants": degraded,
            "free_columns": len(self._manager.free_columns),
            "free_smbm_rows": self._manager.free_smbm_rows,
            "probes_processed": self._switch.probes_processed,
        }


class _RowByRowSwitch(ThanosSwitch):
    """The switch with every run evaluated one row at a time: each row
    gets what it would get as a batch of its own."""

    @staticmethod
    def _serve_run(module: FilterModule, rows: list[Packet],
                   masks: list[int | None]) -> None:
        evaluate = module.evaluate_masks
        _write_run(module, rows, [evaluate((mask,))[0] for mask in masks])


class ScalarBackend(SwitchBackend):
    """The batched path with every run cut to single rows (module
    docstring): one classifying pass per batch, then one
    ``evaluate_masks`` call per row."""

    name = "scalar"
    switch_cls = _RowByRowSwitch


class BatchedBackend(SwitchBackend):
    """The columnar engine path: one classifying pass per batch, then
    each tenant's run of rows as one mask column through its module's
    ``evaluate_masks``, cut only by that tenant's own probes."""

    name = "batched"


def build_backend(kind: str, manager: TenantManager) -> SwitchBackend:
    """Backend factory for CLIs and harnesses (``scalar`` | ``batched``)."""
    backends = {"scalar": ScalarBackend, "batched": BatchedBackend}
    try:
        cls = backends[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {kind!r}; choose from {sorted(backends)}"
        ) from None
    return cls(manager)

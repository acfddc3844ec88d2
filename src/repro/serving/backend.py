"""Backend-neutral serving: one interface, two conforming switch paths.

:class:`SwitchBackend` is the contract the control plane programs against:
tenant lifecycle (program / unprogram / hot-swap), table write-batches,
packet serving (scalar and batch), checkpoint / restore, and a health
probe.  Everything above this interface — the asyncio
:class:`~repro.serving.controller.Controller`, live migration, the chaos
harness — is written once and runs unchanged on any backend.

Two backends conform today, both multiplexing tenants over one
:class:`~repro.switch.thanos_switch.ThanosSwitch`:

* :class:`ScalarBackend` — the per-packet reference path: every packet
  traverses the RMT pipeline individually (``switch.process``);
* :class:`BatchedBackend` — the columnar engine path
  (``switch.process_batch``): one classifying pass over the batch, then
  each tenant's rows through the batched/codegen tiers in runs cut only
  by that tenant's own probes.

Both refuse a batch by one rule, before any probe commits or any row is
served: :func:`~repro.tenancy.demux.classify`, which the batched switch
runs as its first pass and the scalar backend through
:meth:`~repro.tenancy.demux.TenantDemux.partition` — every routing
violation in one :class:`~repro.errors.RoutingError`, else the first
malformed mask or out-of-quota probe id.  The rest of the shared
machinery — admission, the epoch watermark stamped on filter outputs,
serving-cache resets on plan or table change — lives in
:class:`SwitchBackend` itself (and below it, in
:class:`~repro.switch.filter_module.FilterModule`), so the backends
differ *only* in how an admitted batch is served
(:meth:`SwitchBackend._serve_batch`, the one abstract method).  That is
what the conformance suite checks: same inputs, same outputs, same error
types, same observability series (distinguished only by the ``backend``
label).
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from typing import Any

from repro import obs
from repro.analysis.symbolic import require_semantically_clean
from repro.analysis.verifier import TableSchema
from repro.core.policy import Policy
from repro.errors import ConfigurationError
from repro.rmt.packet import Packet
from repro.serving.checkpoint import (
    SwitchCheckpoint,
    TenantCheckpoint,
    spec_from_dict,
    spec_to_dict,
)
from repro.switch.thanos_switch import ThanosSwitch
from repro.tenancy.demux import TenantDemux
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


class SwitchBackend(abc.ABC):
    """The serving contract a control plane programs against, implemented
    once over a :class:`TenantManager` and a multi-tenant
    :class:`ThanosSwitch`.

    Subclasses override only :meth:`_serve_batch`, and both start it with
    the same whole-batch check (module docstring), so they present
    identical all-or-nothing batch admission regardless of how they serve.
    """

    #: Short identifier used as the ``backend`` label on obs series.
    name: str = "abstract"

    def __init__(self, manager: TenantManager):
        self._manager = manager
        self._switch = ThanosSwitch.multi_tenant(manager)
        self._demux = TenantDemux(manager)
        registry = obs.get_registry()
        labels = {"backend": self.name}
        self._obs_packets = registry.counter(
            "backend_packets_total", labels,
            help="packets served through the backend (scalar + batch)",
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

    def hot_swap(self, name: str, policy: Policy, *,
                 allow_semantic_change: bool = True) -> int:
        """Hitlessly replace a tenant's policy; returns the new epoch.

        The serving path escalates the TH017–TH019 reachability lints to
        errors — a policy with a provably-dead region must not be swapped
        in live.  With ``allow_semantic_change=False`` a swap that
        *widens* the admitted match region is additionally rejected
        (TH020): only equivalent or narrowing replacements install.
        """
        tenant = self._manager.get(name)
        require_semantically_clean(
            policy,
            schema=TableSchema(
                tenant.slice.smbm_quota, self._manager.metric_names
            ),
            context=f"hot-swap of tenant {name!r}",
        )
        return self._manager.hot_swap(
            name, policy, allow_semantic_change=allow_semantic_change
        )

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

    def process(self, packet: Packet) -> Packet:
        """Serve one packet (probe or data)."""
        out = self._switch.process(packet)
        self._obs_packets.inc()
        return out

    def process_batch(self, packets: Sequence[Packet]) -> list[Packet]:
        """Serve a packet stream, preserving per-packet semantics."""
        out = self._serve_batch(packets)
        self._obs_packets.inc(len(packets))
        return out

    @abc.abstractmethod
    def _serve_batch(self, packets: Sequence[Packet]) -> list[Packet]:
        """The one point the two backends differ."""

    # -- checkpoint / restore ----------------------------------------------------------

    def snapshot_tenant(self, name: str) -> TenantCheckpoint:
        """Capture one tenant's complete serving state."""
        tenant = self._manager.get(name)
        ckpt = TenantCheckpoint(
            spec=spec_to_dict(replace(
                tenant.spec,
                # The live policy, not the admitted one: hot-swaps must
                # survive a checkpoint.
                policy=tenant.module.policy,
                # Count, not physical indices: the destination allocates
                # its own strip, and snapshots stay comparable across
                # switches.
                columns=len(tenant.columns),
            )),
            smbm_state=tenant.module.smbm.export_state(),
            plan_epoch=tenant.module.plan_epoch,
        )
        self._obs_snapshots.inc()
        return ckpt

    def restore_tenant(self, ckpt: TenantCheckpoint) -> Tenant:
        """Recreate a tenant from a checkpoint: admit its spec, restore
        its table bit-faithfully, re-stamp its epoch watermark."""
        tenant = self._manager.admit(spec_from_dict(ckpt.spec))
        try:
            tenant.module.restore_table(
                ckpt.smbm_state, plan_epoch=ckpt.plan_epoch
            )
        except Exception:
            # Never leave a half-restored tenant serving: a tenant that
            # admitted but failed to restore is evicted before the error
            # propagates.
            self._manager.evict(tenant.name)
            raise
        self._obs_restores.inc()
        return tenant

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
            t.name for t in self._manager if t.module.degraded
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


class ScalarBackend(SwitchBackend):
    """The per-packet reference path: every packet, probe or data,
    traverses the RMT pipeline individually."""

    name = "scalar"

    def _serve_batch(self, packets: Sequence[Packet]) -> list[Packet]:
        # The batched path's up-front refusal, then per-packet serving
        # (which re-resolves each label against the unchanged admitted set).
        self._demux.partition(packets)
        return [self._switch.process(p) for p in packets]


class BatchedBackend(SwitchBackend):
    """The columnar engine path: one classifying pass per batch, then
    each tenant's rows through the batched/codegen tiers, cut only by that
    tenant's own probes."""

    name = "batched"

    def _serve_batch(self, packets: Sequence[Packet]) -> list[Packet]:
        return self._switch.process_batch(packets)


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

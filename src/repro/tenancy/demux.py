"""Backend-neutral tenant demux over ``META_TENANT`` labels.

Every serving path that multiplexes many tenants onto one physical switch
— the scalar per-packet hook, the batched columnar path, and any
:class:`~repro.serving.backend.SwitchBackend` built on top of them —
needs the same routing decision: *which admitted tenant owns this
packet?*  This module centralises that decision so the rule is written
once:

* a packet that touches a tenant's module — a filter request or a probe
  (a table write) — with no ``META_TENANT`` label is a routing error (the
  ingress classifier must label every probe/data packet);
* a label naming no admitted tenant is a routing error;
* batch demux reports **all** violations of a batch in one
  :class:`~repro.errors.RoutingError` (every distinct unknown label plus
  the count of unlabelled packets) — a client replaying a rejected
  batch learns the complete fix, not one label per round trip.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.engine.batch import META_FILTER_REQUEST
from repro.errors import ConfigurationError, RoutingError
from repro.rmt.packet import META_TENANT, Packet
from repro.rmt.probe import is_probe

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.tenancy.manager import Tenant, TenantManager

__all__ = ["TenantDemux"]


class TenantDemux:
    """Route packets to their owning tenant by ``META_TENANT`` label."""

    def __init__(self, manager: "TenantManager"):
        self._manager = manager

    @property
    def manager(self) -> "TenantManager":
        return self._manager

    def resolve(self, packet: Packet) -> "Tenant":
        """The admitted tenant owning this packet's traffic.

        Single-packet (scalar path) variant: raises on the first problem,
        since there is only one packet to report on.
        """
        name = packet.metadata.get(META_TENANT)
        if name is None:
            raise RoutingError(
                "packet on a multi-tenant switch carries no META_TENANT "
                "metadata; the ingress classifier must label every "
                "probe/data packet with its tenant",
                unlabelled=1,
            )
        try:
            return self._manager.get(name)
        except ConfigurationError as exc:
            raise RoutingError(str(exc), unknown=(name,)) from None

    def partition(self, packets: Sequence[Packet]) -> dict[str, list[Packet]]:
        """Split a batch's filter requests into per-tenant sub-batches,
        arrival order kept.

        Packets that neither carry ``META_FILTER_REQUEST`` nor are probes
        bypass demux entirely — they touch no tenant's module, so they
        need no label.  A probe's label is validated (it will write the
        named tenant's table) but the probe joins no sub-batch.

        Every routing violation in the batch is collected before raising
        one :class:`~repro.errors.RoutingError` naming all distinct
        unknown labels and the unlabelled-packet count; on a violation-free
        batch, returns ``{tenant_name: [requesting packets...]}``.
        """
        by_tenant: dict[str, list[Packet]] = {}
        unknown: list[str] = []
        unlabelled = 0
        admitted = self._manager
        for packet in packets:
            meta = packet.metadata
            if not meta.get(META_FILTER_REQUEST):
                if is_probe(packet):
                    name = meta.get(META_TENANT)
                    if name is None:
                        unlabelled += 1
                    elif name not in admitted and name not in unknown:
                        unknown.append(name)
                continue
            name = meta.get(META_TENANT)
            if name is None:
                unlabelled += 1
                continue
            if name not in admitted:
                if name not in unknown:
                    unknown.append(name)
                continue
            by_tenant.setdefault(name, []).append(packet)
        if unknown or unlabelled:
            parts = []
            if unknown:
                parts.append(
                    f"{len(unknown)} unknown META_TENANT label(s) "
                    f"{sorted(unknown)} (admitted: "
                    f"{sorted(t.name for t in admitted)})"
                )
            if unlabelled:
                parts.append(
                    f"{unlabelled} requesting or probe packet(s) carry no "
                    "META_TENANT metadata"
                )
            raise RoutingError(
                "batch demux on a multi-tenant switch failed: "
                + "; ".join(parts),
                unknown=tuple(sorted(unknown)),
                unlabelled=unlabelled,
            )
        return by_tenant

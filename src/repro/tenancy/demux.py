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

:func:`classify` is the one pass a batch gets at the switch's edge; the
batch-level :meth:`TenantDemux.partition` is a view of it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.engine.batch import META_FILTER_INPUT, META_FILTER_REQUEST, checked_mask
from repro.errors import CapacityError, ConfigurationError, RoutingError
from repro.rmt.packet import META_TENANT, Packet
from repro.rmt.probe import ProbeCodec, ProbeUpdate, is_probe

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.switch.filter_module import FilterModule
    from repro.tenancy.manager import Tenant, TenantManager

__all__ = ["TenantDemux", "classify"]

#: An owner's run of rows: the packets and each one's checked
#: ``META_FILTER_INPUT`` mask (``None`` = the full table), in arrival order.
Run = tuple[list[Packet], list["int | None"]]


def classify(
    packets: Sequence[Packet],
    decode: Callable[[Packet], ProbeUpdate | None],
    tenants: "TenantManager | None",
    solo: "FilterModule | None",
) -> tuple[dict, list[tuple["str | None", Run, ProbeUpdate]], dict]:
    """The one pass at a batch's edge: read each packet's metadata once,
    classify it, route it and refuse the whole batch before anything
    commits.

    A packet is a *probe* when it carries the probe header (only those are
    decoded), a *row* when it requests filtering, and otherwise bypasses:
    it touches no module and needs no label.  Probes and rows belong to an
    owner — the ``META_TENANT`` label's admitted tenant, or ``solo`` (a
    dedicated switch: one owner, labels unread).

    Refusals: every routing violation in one :class:`RoutingError`;
    failing that, the first malformed ``META_FILTER_INPUT`` mask
    (:class:`~repro.errors.ConfigurationError`) or probe resource id past
    its owner's quota (:class:`~repro.errors.CapacityError`) in arrival
    order.

    Returns ``(owners, cuts, runs)``: the module per owner label; per
    probe, in arrival order, ``(label, run before it, update)`` — an
    owner's rows are cut by its own probes only; and each owner's run
    after its last probe.
    """
    owners: dict[str | None, FilterModule] = {}
    runs: dict[str | None, Run] = {}
    cuts: list[tuple[str | None, Run, ProbeUpdate]] = []
    unknown: list[str] = []
    unlabelled = 0
    refusal: Exception | None = None
    for packet in packets:
        meta = packet.metadata
        probe = packet.headers and is_probe(packet)  # no header, no call
        if not (probe or meta.get(META_FILTER_REQUEST)):
            continue
        name = None if solo is not None else meta.get(META_TENANT)
        run = runs.get(name)
        if run is None:
            if solo is None and name not in tenants:
                if name is None:
                    unlabelled += 1
                elif name not in unknown:
                    unknown.append(name)
                continue
            owners[name] = solo if solo is not None else tenants.get(name).module
            run = runs[name] = ([], [])
        if probe:
            update = decode(packet)
            quota = owners[name].smbm.capacity
            if update.resource_id >= quota and refusal is None:
                refusal = CapacityError(
                    f"probe names resource id {update.resource_id} but its "
                    f"owner's table holds ids [0, {quota})")
            cuts.append((name, run, update))
            runs[name] = ([], [])
            continue
        mask = meta.get(META_FILTER_INPUT)
        if mask is not None:
            try:
                checked_mask(mask)
            except ConfigurationError as exc:
                refusal = refusal or exc
        run[0].append(packet)
        run[1].append(mask)
    if unknown or unlabelled:
        parts = []
        if unknown:
            parts.append(
                f"{len(unknown)} unknown META_TENANT label(s) "
                f"{sorted(unknown)} (admitted: "
                f"{sorted(t.name for t in tenants)})"
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
    if refusal is not None:
        raise refusal
    return owners, cuts, runs


class TenantDemux:
    """Route packets to their owning tenant by ``META_TENANT`` label."""

    def __init__(self, manager: "TenantManager"):
        self._manager = manager
        self._codec = ProbeCodec(manager.metric_names)

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
        """Split a batch's rows into per-tenant sub-batches, arrival order
        kept: :func:`classify` with the probe cuts dropped, so it refuses
        exactly what the batched switch refuses (the scalar backend's
        up-front check).  Returns ``{tenant_name: [rows...]}`` for every
        tenant with at least one row."""
        _, cuts, runs = classify(packets, self._codec.decode,
                                 self._manager, None)
        by_tenant: dict[str, list[Packet]] = {}
        for name, (rows, _), _ in cuts:
            by_tenant.setdefault(name, []).extend(rows)
        for name, (rows, _) in runs.items():
            by_tenant.setdefault(name, []).extend(rows)
        return {name: rows for name, rows in by_tenant.items() if rows}

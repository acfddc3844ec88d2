"""Backend-neutral tenant demux over ``META_TENANT`` labels.

Every serving path that multiplexes many tenants onto one physical switch
— the switch's batch pass, and any
:class:`~repro.serving.backend.SwitchBackend` built on it — needs the same
routing decision: *which admitted tenant owns this packet?*  This module
states that rule once, in :func:`classify`:

* a packet that touches a tenant's module — a filter request or a probe
  (a table write) — with no ``META_TENANT`` label is a routing error (the
  ingress classifier must label every probe/data packet);
* a label naming no admitted tenant — whatever its type, hashable or
  not — is a routing error;
* all violations of a batch are reported in one
  :class:`~repro.errors.RoutingError` (every distinct unknown label plus
  the count of unlabelled packets) — a client replaying a rejected
  batch learns the complete fix, not one label per round trip.  A single
  packet is a batch of one.

:func:`classify` is the one pass a batch gets at the switch's edge;
:meth:`TenantDemux.partition` is a view of it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.engine.batch import META_FILTER_INPUT, META_FILTER_REQUEST, checked_mask
from repro.errors import CapacityError, ConfigurationError, RoutingError
from repro.rmt.packet import META_TENANT, Packet
from repro.rmt.probe import ProbeCodec, ProbeUpdate

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.switch.filter_module import FilterModule
    from repro.tenancy.manager import TenantManager

__all__ = ["TenantDemux", "classify"]

#: An owner's run of rows: the packets and each one's checked
#: ``META_FILTER_INPUT`` mask (``None`` = the full table), in arrival order.
Run = tuple[list[Packet], list["int | None"]]


def classify(
    packets: Sequence[Packet],
    decode: Callable[[Packet], ProbeUpdate | None],
    tenants: "TenantManager",
) -> tuple[dict, list[tuple[str, Run, ProbeUpdate]], dict]:
    """The one pass at a batch's edge: read each packet's metadata once,
    classify it, route it and refuse the whole batch before anything
    commits.

    A packet is a *probe* when ``decode`` finds the probe header on it
    (one scan of its headers; a packet with none is not decoded), a *row*
    when it requests filtering, and otherwise bypasses:
    it touches no module and needs no label.  Probes and rows belong to
    the admitted tenant their ``META_TENANT`` label names.

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
    owners: dict[str, FilterModule] = {}
    runs: dict[str, Run] = {}
    cuts: list[tuple[str, Run, ProbeUpdate]] = []
    unknown: list[str] = []
    unlabelled = 0
    refusal: Exception | None = None
    for packet in packets:
        meta = packet.metadata
        # A packet without headers is no probe: it costs no decode call.
        update = decode(packet) if packet.headers else None
        if update is None and not meta.get(META_FILTER_REQUEST):
            continue
        name = meta.get(META_TENANT)
        try:
            run = runs.get(name)
        except TypeError:  # an unhashable label: no tenant can own it
            if name not in unknown:
                unknown.append(name)
            continue
        if run is None:
            if name not in tenants:
                if name is None:
                    unlabelled += 1
                elif name not in unknown:
                    unknown.append(name)
                continue
            owners[name] = tenants.get(name).module
            run = runs[name] = ([], [])
        if update is not None:
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
        # Labels are whatever a client sent: order them by their text.
        unknown.sort(key=str)
        parts = []
        if unknown:
            parts.append(
                f"{len(unknown)} unknown META_TENANT label(s) "
                f"{unknown} (admitted: "
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
            unknown=tuple(unknown),
            unlabelled=unlabelled,
        )
    if refusal is not None:
        raise refusal
    return owners, cuts, runs


class TenantDemux:
    """A batch's rows grouped by owning tenant, by :func:`classify`'s
    rule."""

    def __init__(self, manager: "TenantManager"):
        self._manager = manager
        self._codec = ProbeCodec(manager.metric_names)

    def partition(self, packets: Sequence[Packet]) -> dict[str, list[Packet]]:
        """Split a batch's rows into per-tenant sub-batches, arrival order
        kept: :func:`classify` with the probe cuts dropped, so it refuses
        exactly what the switch refuses.  Returns ``{tenant_name:
        [rows...]}`` for every tenant with at least one row."""
        _, cuts, runs = classify(packets, self._codec.decode, self._manager)
        by_tenant: dict[str, list[Packet]] = {}
        for name, (rows, _), _ in cuts:
            by_tenant.setdefault(name, []).extend(rows)
        for name, (rows, _) in runs.items():
            by_tenant.setdefault(name, []).extend(rows)
        return {name: rows for name, rows in by_tenant.items() if rows}

"""The integrated Thanos switch (section 3, Figure 8).

Ties together the four tasks of implementing a filter policy:

1. **Calculate resource metric values** — probe packets are parsed by the
   RMT parser and decoded into metric updates (remote metrics); a network
   function writes its local metrics through
   :meth:`FilterModule.update_resource` (e.g. :mod:`repro.policies.portlb`).
2. **Store resources and their metrics** — each tenant's SMBM.
3. **Implement the filter policy** — each tenant's compiled filter
   pipeline.
4. **Process the filter output** — the result lands in packet metadata,
   where the stages after the filter read it (e.g. to pick an output port).

In the paper the filter module sits inline between RMT ingress and egress
match-action stages; the model keeps the filter stage alone.  Nothing in
it programs the stages around the filter, and the filter's contract with
them is the packet metadata it reads and writes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.rmt.packet import META_TENANT, Packet
from repro.rmt.probe import ProbeCodec, ProbeUpdate
from repro.switch.filter_module import (
    META_FILTER_EPOCH,
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    META_FILTER_SELECTED,
    FilterModule,
    selected_id,
)
from repro.tenancy.demux import TenantDemux, classify

if TYPE_CHECKING:  # pragma: no cover - avoids a runtime switch<->tenancy cycle
    from repro.tenancy.manager import TenantManager

__all__ = ["ThanosSwitch", "META_TENANT"]


class ThanosSwitch:
    """The filter stage of one switch, shared by every tenant admitted on
    ``tenants`` (a dedicated switch is a manager with one tenant).

    A probe or a filter request belongs to the tenant its ``META_TENANT``
    label names, and the switch never guesses: an unlabelled or unknown
    label is a :class:`~repro.errors.RoutingError`.  A packet that asks
    for nothing bypasses the stage and needs no label.
    """

    def __init__(self, tenants: "TenantManager"):
        self._tenants = tenants
        self._demux = TenantDemux(tenants)
        self._codec = ProbeCodec(tenants.metric_names)
        self._probes_processed = 0

    @property
    def tenants(self) -> "TenantManager":
        return self._tenants

    @property
    def probes_processed(self) -> int:
        return self._probes_processed

    # -- remote metrics: the probe path (section 3, task 1) -----------------------------

    def _apply_probe(self, module: FilterModule, update: ProbeUpdate) -> None:
        """Commit one decoded probe to its owner's resource table."""
        module.update_resource(update.resource_id, update.metrics)
        self._probes_processed += 1

    def process(self, packet: Packet) -> Packet:
        """Process one packet: a probe updates its owner's table, a filter
        request is served by its owner's module, anything else bypasses."""
        update = self._codec.decode(packet)
        if update is not None:
            self._apply_probe(self._demux.resolve(packet).module, update)
        elif packet.metadata.get(META_FILTER_REQUEST):
            self._demux.resolve(packet).module.hook(packet)
        return packet

    def process_batch(self, packets: Sequence[Packet]) -> list[Packet]:
        """Process a packet stream, serving each owner's rows as columns.

        One pass (:func:`~repro.tenancy.demux.classify`) reads every
        packet's metadata once: it decodes only packets that carry headers,
        routes probes and filter requests to their owner, and refuses the
        whole batch — before any probe commits or any row is served — on a
        routing violation, a malformed mask or a probe resource id past its
        owner's quota.  Each owner's rows are then served in arrival order,
        one mask column through :meth:`FilterModule.evaluate_masks` per
        run, the outputs written straight onto the rows' metadata.  A run
        is cut only by its owner's own probes, which commit in arrival
        order: every row sees exactly the table state it would under
        per-packet :meth:`process`, and a probe for one tenant never splits
        another's run (tables are disjoint, so the order across owners is
        immaterial).

        An error raised while *serving* a row — a dead Cell met without
        ``self_healing``, a sanitizer refusal — is the one :meth:`process`
        raises for that row, and propagates as is: while a fault sits on an
        owner's placement every row its memo cannot answer walks the Cells,
        masked or not, on either path.  Which other owners' rows and probes
        were served before it is not part of the contract: per-packet
        serving stops at the packet, this path at the run.
        """
        owners, cuts, runs = classify(packets, self._codec.decode,
                                      self._tenants)
        for name, run, update in cuts:
            _serve_run(owners[name], *run)
            self._apply_probe(owners[name], update)
        for name, run in runs.items():
            _serve_run(owners[name], *run)
        return list(packets)


def _serve_run(module: FilterModule, rows: list[Packet],
               masks: list[int | None]) -> None:
    """One owner's run of rows: its mask column through the batch core, and
    each output written onto its row's metadata, as :meth:`FilterModule.hook`
    writes it (``selected`` once per distinct output object, so once for a
    broadcast run)."""
    if rows:
        outs = module.evaluate_masks(masks)
        epoch = module.plan_epoch
        last = pick = None
        for packet, out in zip(rows, outs):
            if out is not last:
                last, pick = out, selected_id(out)
            meta = packet.metadata
            meta[META_FILTER_OUTPUT] = out
            meta[META_FILTER_SELECTED] = pick
            meta[META_FILTER_EPOCH] = epoch

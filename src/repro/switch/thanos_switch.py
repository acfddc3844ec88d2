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
from repro.rmt.probe import ProbeCodec
from repro.switch.filter_module import (
    META_FILTER_EPOCH,
    META_FILTER_OUTPUT,
    META_FILTER_SELECTED,
    FilterModule,
    selected_id,
)
from repro.tenancy.demux import classify

if TYPE_CHECKING:  # pragma: no cover - avoids a runtime switch<->tenancy cycle
    from repro.tenancy.manager import TenantManager

__all__ = ["ThanosSwitch", "META_TENANT"]


def _serve_run(module: FilterModule, rows: list[Packet],
               masks: list[int | None]) -> None:
    """One owner's run of rows: its mask column through the batch core in
    one call, the outputs written by :func:`_write_run`."""
    if rows:
        _write_run(module, rows, module.evaluate_masks(masks))


def _write_run(module: FilterModule, rows: Sequence[Packet],
               outs: Sequence[int]) -> None:
    """Each output onto its row's metadata: the one writer of the filter
    output on the switch (``selected`` once per distinct output object, so
    once for a broadcast run)."""
    epoch = module.plan_epoch
    last = pick = None
    for packet, out in zip(rows, outs):
        if out is not last:
            last, pick = out, selected_id(out)
        meta = packet.metadata
        meta[META_FILTER_OUTPUT] = out
        meta[META_FILTER_SELECTED] = pick
        meta[META_FILTER_EPOCH] = epoch


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
        self._codec = ProbeCodec(tenants.metric_names)
        self._probes_processed = 0

    @property
    def tenants(self) -> "TenantManager":
        return self._tenants

    @property
    def probes_processed(self) -> int:
        return self._probes_processed

    def process_batch(self, packets: Sequence[Packet]) -> list[Packet]:
        """Process a packet stream, serving each owner's rows as columns:
        the switch's one packet entry (a single packet is a batch of one).

        One pass (:func:`~repro.tenancy.demux.classify`) reads every
        packet's metadata once: it decodes only packets that carry headers,
        routes probes and filter requests to their owner, and refuses the
        whole batch — before any probe commits or any row is served — on a
        routing violation, a malformed mask or a probe resource id past its
        owner's quota.  Each owner's rows are then served in arrival order,
        one mask column through :meth:`FilterModule.evaluate_masks` per
        run, the outputs written straight onto the rows' metadata.  A run
        is cut only by its owner's own probes, which commit in arrival
        order: every row sees exactly the table state it would if each
        packet came as a batch of its own, and a probe for one tenant never
        splits another's run (tables are disjoint, so the order across
        owners is immaterial).

        An error raised while *serving* a row — a dead Cell met without
        ``self_healing``, a sanitizer refusal — is the one that row raises
        served alone, and propagates as is: while a fault sits on an
        owner's placement every row its memo cannot answer walks the Cells,
        masked or not.  Which other owners' rows and probes were served
        before it is not part of the contract: a batch of one stops at the
        packet, a longer batch at the run.
        """
        owners, cuts, runs = classify(packets, self._codec.decode,
                                      self._tenants)
        for name, run, update in cuts:
            self._serve_run(owners[name], *run)
            owners[name].update_resource(update.resource_id, update.metrics)
            self._probes_processed += 1
        for name, run in runs.items():
            self._serve_run(owners[name], *run)
        return list(packets)

    #: How one owner's run is served: its whole mask column at once.
    _serve_run = staticmethod(_serve_run)

"""The integrated Thanos switch (section 3, Figure 8).

Ties together the four tasks of implementing a filter policy:

1. **Calculate resource metric values** — probe packets are parsed by the
   RMT parser and decoded into metric updates (remote metrics); local
   metrics arrive through event hooks (:meth:`ThanosSwitch.on_event`,
   modelling the event-driven RMT extension the paper cites).
2. **Store resources and their metrics** — the filter module's SMBM.
3. **Implement the filter policy** — the compiled filter pipeline, run
   inline between ingress and egress match-action stages.
4. **Process the filter output** — egress RMT stages read the result from
   packet metadata (e.g. to pick an output port).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.rmt.packet import META_TENANT, Packet
from repro.rmt.pipeline import MatchActionStage, RMTPipeline
from repro.rmt.probe import ProbeCodec
from repro.switch.filter_module import META_FILTER_REQUEST, FilterModule
from repro.tenancy.demux import TenantDemux

if TYPE_CHECKING:  # pragma: no cover - avoids a runtime switch<->tenancy cycle
    from repro.tenancy.manager import TenantManager

__all__ = ["ThanosSwitch", "META_TENANT"]

#: A local-metric event handler maps (event name, event args) to SMBM writes.
EventHandler = Callable[["ThanosSwitch", Mapping[str, int]], None]
#: Cuts a run of data packets into (owning module, its packets) sub-batches.
RunSplit = Callable[[list[Packet]],
                    Iterable[tuple[FilterModule, list[Packet]]]]


class ThanosSwitch:
    """A switch with one RMT pipeline and one inline filter module — or,
    in multi-tenant mode (:meth:`multi_tenant`), one demuxed filter stage
    serving every admitted tenant's slice of the shared pipeline.

    The two differ only in who owns a packet: construction fixes one owner
    lookup (packet -> module) and one run split (data packets -> per-module
    sub-batches), and everything below is written once against those.
    """

    def __init__(
        self,
        filter_module: FilterModule,
        ingress_stages: list[MatchActionStage] | None = None,
        egress_stages: list[MatchActionStage] | None = None,
    ):
        """A dedicated switch around one built filter module."""
        self._filter: FilterModule | None = filter_module
        self._tenants: "TenantManager | None" = None
        self._wire(
            filter_module.smbm.metric_names,
            lambda packet: filter_module,
            lambda run: ((filter_module, run),),
            ingress_stages, egress_stages,
        )

    @classmethod
    def multi_tenant(
        cls,
        tenants: "TenantManager",
        ingress_stages: list[MatchActionStage] | None = None,
        egress_stages: list[MatchActionStage] | None = None,
    ) -> "ThanosSwitch":
        """A virtualized switch serving every tenant admitted on
        ``tenants``.  Probe and data packets must carry the
        ``META_TENANT`` metadata key; the switch demuxes to the owning
        tenant's filter module and SMBM and never guesses."""
        switch = cls.__new__(cls)
        switch._filter = None
        switch._tenants = tenants
        demux = TenantDemux(tenants)
        # Tenants' tables are disjoint, so sub-batch order is immaterial;
        # within each tenant arrival order is preserved.  Every routing
        # violation in a run (all distinct unknown labels, all unlabelled
        # packets) surfaces in the one RoutingError the demux raises.
        switch._wire(
            tenants.metric_names,
            lambda packet: demux.resolve(packet).module,
            lambda run: ((tenants.get(name).module, pkts)
                         for name, pkts in demux.partition(run).items()),
            ingress_stages, egress_stages,
        )
        return switch

    def _wire(
        self,
        metric_names: Sequence[str],
        owner: Callable[[Packet], FilterModule],
        split: RunSplit,
        ingress_stages: list[MatchActionStage] | None,
        egress_stages: list[MatchActionStage] | None,
    ) -> None:
        self._owner = owner
        self._split = split
        self._codec = ProbeCodec(metric_names)
        self._parser = self._codec.build_parser()
        stages = list(ingress_stages or [])
        stages.append(MatchActionStage(name="thanos-filter",
                                       hook=self._filter_hook))
        stages.extend(egress_stages or [])
        # Batched serving is only sound when the filter is the sole stage:
        # other stages' tables and register charges must interleave with
        # each packet, which a columnar pass cannot reproduce.
        self._filter_only = len(stages) == 1
        self._pipeline = RMTPipeline(stages)
        self._event_handlers: dict[str, EventHandler] = {}
        self._probes_processed = 0

    @property
    def filter_module(self) -> FilterModule:
        if self._filter is None:
            raise ConfigurationError(
                "a multi-tenant switch has one filter module per tenant: "
                "use tenants.get(name).module"
            )
        return self._filter

    @property
    def tenants(self) -> "TenantManager | None":
        """The tenant manager, or ``None`` for a dedicated switch."""
        return self._tenants

    def _filter_hook(self, packet: Packet) -> None:
        """The filter stage: route to the owner, bypass otherwise (a packet
        that asks for nothing needs no owner, so no tenant label)."""
        if packet.metadata.get(META_FILTER_REQUEST):
            self._owner(packet).hook(packet)

    @property
    def pipeline(self) -> RMTPipeline:
        return self._pipeline

    @property
    def probes_processed(self) -> int:
        return self._probes_processed

    # -- remote metrics: the probe path (section 3, task 1) -----------------------------

    def receive_bytes(self, data: bytes) -> Packet:
        """Parse wire bytes and process the resulting packet."""
        return self.process(self._parser.parse(data))

    def _apply_probe(self, packet: Packet, update) -> None:
        """Commit one decoded probe to its owner's resource table."""
        self._owner(packet).update_resource(update.resource_id, update.metrics)
        self._probes_processed += 1

    def process(self, packet: Packet) -> Packet:
        """Process one packet: probe packets update the SMBM, data packets
        traverse the pipeline (and trigger filtering when they request it)."""
        update = self._codec.decode(packet)
        if update is None:
            return self._pipeline.process(packet)
        self._apply_probe(packet, update)
        return packet

    def process_batch(self, packets: Sequence[Packet]) -> list[Packet]:
        """Process a packet stream, serving data packets in columnar batches.

        Probe packets are decoded and applied to the SMBM **in arrival
        order** — they act as batch boundaries, so every data packet sees
        exactly the table state it would have seen under per-packet
        :meth:`process`.  The runs of data packets between probes go
        through :meth:`FilterModule.evaluate_batch` when the filter is the
        only RMT stage; with ingress/egress stages present each packet
        falls back to the per-packet pipeline (those stages' tables and
        register charges must interleave per packet).  Note the RMT
        pipeline's ``packets_processed`` counter only advances on the
        per-packet path; batched rows are counted by the filter module's
        own batch counters.
        """
        run: list[Packet] = []

        def flush() -> None:
            if not run:
                return
            if self._filter_only:
                for module, pkts in self._split(run):
                    module.evaluate_batch(pkts)
            else:
                for p in run:
                    self._pipeline.process(p)
            run.clear()

        for packet in packets:
            update = self._codec.decode(packet)
            if update is None:
                run.append(packet)
            else:
                flush()  # writes may not reorder past pending reads
                self._apply_probe(packet, update)
        flush()
        return list(packets)

    def filter_for(self, packet: Packet) -> Packet:
        """Convenience: mark the packet for filtering and process it."""
        packet.metadata[META_FILTER_REQUEST] = 1
        return self.process(packet)

    # -- local metrics: event-driven updates (section 3, task 1) ------------------------

    def register_event(self, name: str, handler: EventHandler) -> None:
        """Register a custom event (e.g. queue enqueue/dequeue)."""
        if name in self._event_handlers:
            raise ConfigurationError(f"event {name!r} already registered")
        self._event_handlers[name] = handler

    def on_event(self, name: str, **args: int) -> None:
        """Fire a local event; the handler typically updates the SMBM."""
        handler = self._event_handlers.get(name)
        if handler is None:
            raise ConfigurationError(f"no handler for event {name!r}")
        handler(self, args)

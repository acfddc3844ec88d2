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

from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.engine.batch import PacketBatch
from repro.errors import ConfigurationError
from repro.rmt.packet import META_TENANT, Packet
from repro.rmt.pipeline import MatchActionStage, RMTPipeline
from repro.rmt.probe import ProbeCodec, ProbeUpdate
from repro.switch.filter_module import META_FILTER_REQUEST, FilterModule
from repro.tenancy.demux import TenantDemux, classify

if TYPE_CHECKING:  # pragma: no cover - avoids a runtime switch<->tenancy cycle
    from repro.tenancy.manager import TenantManager

__all__ = ["ThanosSwitch", "META_TENANT"]

#: A local-metric event handler maps (event name, event args) to SMBM writes.
EventHandler = Callable[["ThanosSwitch", Mapping[str, int]], None]


class ThanosSwitch:
    """A switch with one RMT pipeline and one inline filter module — or,
    in multi-tenant mode (:meth:`multi_tenant`), one demuxed filter stage
    serving every admitted tenant's slice of the shared pipeline.

    The two differ only in who owns a packet: a dedicated switch's one
    module, or the module of the tenant its ``META_TENANT`` label names.
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
        self._wire(filter_module.smbm.metric_names, ingress_stages,
                   egress_stages)

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
        switch._demux = TenantDemux(tenants)
        switch._wire(tenants.metric_names, ingress_stages, egress_stages)
        return switch

    def _wire(
        self,
        metric_names: Sequence[str],
        ingress_stages: list[MatchActionStage] | None,
        egress_stages: list[MatchActionStage] | None,
    ) -> None:
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

    def _owner_of(self, packet: Packet) -> FilterModule:
        """The module a probe or filter request belongs to."""
        if self._filter is not None:
            return self._filter
        return self._demux.resolve(packet).module

    def _filter_hook(self, packet: Packet) -> None:
        """The filter stage: route to the owner, bypass otherwise (a packet
        that asks for nothing needs no owner, so no tenant label)."""
        if packet.metadata.get(META_FILTER_REQUEST):
            self._owner_of(packet).hook(packet)

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

    def _apply_probe(self, module: FilterModule, update: ProbeUpdate) -> None:
        """Commit one decoded probe to its owner's resource table."""
        module.update_resource(update.resource_id, update.metrics)
        self._probes_processed += 1

    def process(self, packet: Packet) -> Packet:
        """Process one packet: probe packets update the SMBM, data packets
        traverse the pipeline (and trigger filtering when they request it)."""
        update = self._codec.decode(packet)
        if update is None:
            return self._pipeline.process(packet)
        self._apply_probe(self._owner_of(packet), update)
        return packet

    def process_batch(self, packets: Sequence[Packet]) -> list[Packet]:
        """Process a packet stream, serving each owner's rows in columnar
        batches.

        When the filter is the only RMT stage, one pass
        (:func:`~repro.tenancy.demux.classify`) reads every packet's
        metadata once: it decodes probes only, routes probes and filter
        requests to their owner, and refuses the whole batch — before any
        probe commits or any row is served — on a routing violation, a
        malformed mask or a probe resource id past its owner's quota.
        Each owner's rows are then served in arrival order through
        :meth:`FilterModule.evaluate_batch`, cut only by that owner's own
        probes, which commit in arrival order: every row sees exactly the
        table state it would under per-packet :meth:`process`, and a probe
        for one tenant never splits another's run (tables are disjoint, so
        the order across owners is immaterial).

        An error raised while *serving* a row — a dead Cell met without
        ``self_healing``, a sanitizer refusal — is the one :meth:`process`
        raises for that row, and propagates as is (a masked row the batch
        engine takes runs no Cell, so it meets no dead Cell either).  Which
        other owners' rows and probes were served before it is not part of
        the contract: per-packet serving stops at the packet, this path at
        the run.

        With ingress/egress stages present each packet takes
        :meth:`process` (those stages' tables and register charges must
        interleave per packet).  Note the RMT pipeline's
        ``packets_processed`` counter only advances on that path; batched
        rows are counted by the filter module's own batch counters.
        """
        if not self._filter_only:
            for packet in packets:
                self.process(packet)
            return list(packets)
        owners, cuts, runs = classify(packets, self._codec.decode,
                                      self._tenants, self._filter)
        for name, run, update in cuts:
            _serve_run(owners[name], *run)
            self._apply_probe(owners[name], update)
        for name, run in runs.items():
            _serve_run(owners[name], *run)
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


def _serve_run(module: FilterModule, rows: list[Packet],
               masks: list[int | None]) -> None:
    """One owner's run of rows through its batch tiers, written back once."""
    if rows:
        batch = PacketBatch.from_rows(rows, masks)
        module.evaluate_batch(batch)
        batch.scatter()

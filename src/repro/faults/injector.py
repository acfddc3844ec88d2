"""The deterministic, seeded fault injector.

One :class:`FaultInjector` drives every fault class the chaos harness
exercises, each one checking a contract: write contention between replica
pipelines (§5.1.5), link flaps, probe loss and server crashes (the
figures' substrate), a controller crash at an armed crash point (zero
acked-op loss) and a write slipped around a live migration (hitless
migration).  All randomness flows from one ``random.Random(seed)``, so a
fault schedule replays bit-identically from its seed — the property every
chaos assertion rests on.

Every injection is recorded as a :class:`FaultEvent` and counted through
``repro.obs`` as ``faults_injected_total{kind=...}``, which is what the CI
parity check compares against ``faults_detected_total`` for the detectable
fault classes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import obs
from repro.errors import ConfigurationError
from repro.switch.replication import ReplicatedSMBM

__all__ = ["FaultEvent", "FaultInjector", "SimulatedCrash"]


class SimulatedCrash(BaseException):
    """Process death at an armed crash point.

    Deliberately a :class:`BaseException`: the controller's worker relays
    every ``Exception`` to the submitting client, so a simulated *process
    death* must tunnel through it, exactly as a real ``kill -9`` would, and
    be handled only by the crash path itself.  ``site`` names the crash
    point (``wal.before_append``, ``wal.torn_append``,
    ``wal.after_append``, ``ctl.after_apply``) and ``at_op`` which
    occurrence of that site fired.
    """

    def __init__(self, site: str, at_op: int):
        super().__init__(f"simulated crash at {site} (occurrence {at_op})")
        self.site = site
        self.at_op = at_op


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: what kind, where, and the details needed to
    assert its detection later."""

    seq: int
    kind: str
    target: str
    detail: dict = field(default_factory=dict)


class FaultInjector:
    """Seeded fault source; every injection is logged and counted."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.seed = seed
        self.events: list[FaultEvent] = []
        self._registry = obs.get_registry()

    @property
    def rng(self) -> random.Random:
        """The injector's RNG stream (for schedule-level choices)."""
        return self._rng

    def injected(self, kind: str | None = None) -> int:
        """How many faults of ``kind`` (or all) have been injected."""
        if kind is None:
            return len(self.events)
        return sum(1 for e in self.events if e.kind == kind)

    def _record(self, kind: str, target: str, **detail) -> FaultEvent:
        event = FaultEvent(len(self.events), kind, target, dict(detail))
        self.events.append(event)
        self._registry.counter(
            "faults_injected_total", {"kind": kind},
            help="faults injected by the seeded chaos injector",
        ).inc()
        return event

    # -- replication faults --------------------------------------------------------

    def contend_writes(self, rep: ReplicatedSMBM, resource_id: int,
                       metrics_by_pipeline: dict[int, dict[str, int]]
                       ) -> FaultEvent:
        """Stage same-cycle writes to one resource from several pipelines —
        the hazard the paper's one-path-per-resource rule precludes."""
        if len(metrics_by_pipeline) < 2:
            raise ConfigurationError(
                "contention needs writes from at least two pipelines"
            )
        for pipeline, metrics in sorted(metrics_by_pipeline.items()):
            rep.issue_update(pipeline, resource_id, metrics)
        return self._record(
            "write_contention", "replicated_smbm", resource=resource_id,
            pipelines=sorted(metrics_by_pipeline),
        )

    # -- network / control-plane faults ---------------------------------------------

    def fail_link(self, link) -> FaultEvent:
        """Cut a link (the harness schedules the restore edge)."""
        link.fail()
        return self._record("link_flap", f"link:{link.name}")

    def drop_probes(self, server, n: int = 1) -> FaultEvent:
        """Lose the next ``n`` resource probes of one graphdb server."""
        server.drop_next_probes(n)
        return self._record(
            "probe_loss", f"server:{server.server_id}", count=n,
        )

    def crash_server(self, server) -> FaultEvent:
        """Crash a graphdb server (restore is the harness's choice)."""
        server.crash()
        return self._record("server_crash", f"server:{server.server_id}")

    def arm_crash(self, site: str, at_op: int = 0):
        """Arm one crash point: a hook that kills the controller at the
        ``at_op``-th occurrence of ``site``.

        Returns a ``hook(fired_site, record=None)`` callable to pass as
        a :class:`~repro.serving.wal.WriteAheadLog` ``crash_hook``
        (duck-typed — this package never imports the serving layer).
        The log fires the ``wal.*`` sites and a controller over it fires
        ``ctl.after_apply`` through the same hook, so one argument arms
        every crash site, checkpoints included.  When the armed
        occurrence fires it records a ``controller_crash``
        :class:`FaultEvent` (the injected half of the parity ledger;
        recovery's unclean-shutdown detection is the detected half) and
        raises :class:`SimulatedCrash`.
        """
        state = {"hits": 0}

        def hook(fired_site: str, record=None) -> None:
            if fired_site != site:
                return
            hit = state["hits"]
            state["hits"] = hit + 1
            if hit == at_op:
                self._record(
                    "controller_crash", "controller", site=site, at_op=at_op,
                    op_id=getattr(record, "op_id", None),
                )
                raise SimulatedCrash(site, at_op)

        return hook

    def bypass_migration_write(self, migration, resource_id: int,
                               metrics: dict[str, int]) -> FaultEvent:
        """Land one table write on a dual-running migration's *source*
        only, slipping around the dual-running gate.  The divergence must
        be caught by the cutover conservation gate
        (``faults_detected_total{kind="migration_divergence"}``) before
        any cutover completes.  ``migration`` is duck-typed (a
        :class:`~repro.serving.migration.LiveMigration`) so this package
        never imports the serving layer."""
        module = migration.source.manager.get(migration.tenant).module
        module.update_resource(resource_id, dict(metrics))
        return self._record(
            "migration_divergence", "migration",
            tenant=migration.tenant, resource=resource_id,
        )

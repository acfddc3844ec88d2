"""The deterministic, seeded fault injector.

One :class:`FaultInjector` drives every fault class the chaos harness
exercises: SEU bit-flips in SMBM rows, Cell death and stuck-at faults in
the filter pipeline, replica divergence and write contention, link flaps,
probe loss, and server crashes.  All randomness flows from one
``random.Random(seed)``, so a fault schedule replays bit-identically from
its seed — the property every chaos assertion rests on.

Every injection is recorded as a :class:`FaultEvent` and counted through
``repro.obs`` as ``faults_injected_total{kind=...}``, which is what the CI
parity check compares against ``faults_detected_total`` for the detectable
fault classes.

Stuck-at faults get special handling: a wedged unit column may happen not
to change the programmed policy's output at all (the fault is architectural
dead weight), in which case no detector *can* see it.  To keep the
injected == detected ledger exact, :meth:`stick_cell` probes the pipeline
output before and after wedging and reverts injections that change nothing,
walking the candidate list in seeded order until an observable one lands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import obs
from repro.core.smbm import SMBM, STORED_WORD_BITS
from repro.errors import ConfigurationError
from repro.switch.filter_module import FilterModule
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

    # -- SMBM storage faults -----------------------------------------------------

    def flip_smbm_bit(self, smbm: SMBM) -> FaultEvent:
        """One SEU: flip a random bit of a random stored metric word."""
        rows = sorted(smbm.snapshot())
        if not rows:
            raise ConfigurationError("cannot flip a bit in an empty table")
        rid = self._rng.choice(rows)
        metric = self._rng.choice(list(smbm.metric_names))
        bit = self._rng.randrange(STORED_WORD_BITS)
        old, new = smbm.corrupt_stored_bit(rid, metric, bit)
        return self._record(
            "seu", "smbm", resource=rid, metric=metric, bit=bit,
            old=old, new=new,
        )

    def flip_smbm_bits(self, smbm: SMBM, n: int) -> list[FaultEvent]:
        """``n`` SEUs in *distinct* stored words (one flip per word, so
        every one is single-bit correctable and the detection ledger is
        exact)."""
        rows = sorted(smbm.snapshot())
        metrics = list(smbm.metric_names)
        words = [(rid, m) for rid in rows for m in metrics]
        if n > len(words):
            raise ConfigurationError(
                f"asked for {n} distinct-word flips but the table holds "
                f"only {len(words)} words"
            )
        chosen = self._rng.sample(words, n)
        events = []
        for rid, metric in chosen:
            bit = self._rng.randrange(STORED_WORD_BITS)
            old, new = smbm.corrupt_stored_bit(rid, metric, bit)
            events.append(self._record(
                "seu", "smbm", resource=rid, metric=metric, bit=bit,
                old=old, new=new,
            ))
        return events

    # -- filter pipeline hardware faults -------------------------------------------

    def kill_cell(self, module: FilterModule) -> FaultEvent | None:
        """Kill a random Cell the evaluation plan actually routes through.

        Targeting only active (live, non-bypass) Cells guarantees the death
        is observable: the next evaluation faults and the self-healing path
        must recompile.  Returns ``None`` when no targetable Cell remains.
        """
        candidates = module.cells.targets()
        if not candidates:
            return None
        stage, index = self._rng.choice(candidates)
        module.cells.kill(stage, index)
        return self._record("cell_dead", "filter_module",
                            stage=stage, index=index)

    def stick_cell(self, module: FilterModule) -> FaultEvent | None:
        """Wedge a unit column stuck-at-0/1 so the policy output changes.

        Candidates (active Cells x sides x stuck values) are tried in
        seeded order; a wedge that does not change the pipeline output is
        reverted (nothing can detect it), keeping injected == detected
        exact.  Returns ``None`` when no observable wedge exists.
        """
        candidates = [(pos, side, stuck) for pos in module.cells.targets()
                      for side in (1, 2) for stuck in (0, 1)]
        self._rng.shuffle(candidates)
        baseline = module.compiled.evaluate(module.smbm)
        for (stage, index), side, stuck in candidates:
            module.cells.stick(stage, index, side, stuck)
            corrupted = module.compiled.evaluate(module.smbm)
            if corrupted != baseline:
                return self._record(
                    "cell_stuck", "filter_module",
                    stage=stage, index=index, side=side, stuck=stuck,
                )
            module.cells.unstick(stage, index, side)
        return None

    # -- replication faults --------------------------------------------------------

    def diverge_replica(self, rep: ReplicatedSMBM) -> FaultEvent:
        """Corrupt one stored bit in a single replica, breaking sync."""
        if rep.pipelines < 2:
            raise ConfigurationError(
                "divergence needs at least two replicas"
            )
        pipeline = self._rng.randrange(rep.pipelines)
        replica = rep.replica(pipeline)
        rows = sorted(replica.snapshot())
        if not rows:
            raise ConfigurationError(
                "cannot diverge an empty replica set"
            )
        rid = self._rng.choice(rows)
        metric = self._rng.choice(list(replica.metric_names))
        bit = self._rng.randrange(STORED_WORD_BITS)
        old, new = replica.corrupt_stored_bit(rid, metric, bit)
        return self._record(
            "replica_divergence", "replicated_smbm",
            pipeline=pipeline, resource=rid, metric=metric, bit=bit,
            old=old, new=new,
        )

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

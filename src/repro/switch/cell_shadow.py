"""The hardware shadow of a filter module: its policy placed on Cells.

The paper maps a policy onto Cells once, at compile time, and a fault
moves the *placement*, not the policy (§5.3.2: spare Cells and Beneš
re-routing make fail-around a pure recompile).  :class:`CellShadow` is that
placement and everything that only exists because of it: the compiled
pipeline of the live policy on the tenant slice less the routed-around
Cells, the injected physical faults (re-armed on every recompile, since
hardware does not heal), fail-around, :meth:`~CellShadow.self_test` with
per-Cell localisation, and the sanitizer's Cell compare.

The owning :class:`~repro.switch.filter_module.FilterModule` keeps what the
policy alone determines — the kernel and the unit state it steps — and
hands both to :meth:`CellShadow.run` for each row its memo cannot answer.
One rule, re-derived whenever a fault is injected or removed and whenever
a placement is installed, decides what the Cells do with that row
(:attr:`~CellShadow.takes_rows`): while an injected fault sits on the
placement they *serve* it, from any door and masked or not, so the fault
surfaces where hardware meets it; under ``sanitize`` they *check* every
kernel row; otherwise they are not walked at all.
"""

from __future__ import annotations

import time
import weakref
from typing import Callable, Iterable

from repro import obs
from repro.analysis.verifier import TableSchema
from repro.core.cell import Cell
from repro.core.compiler import CompiledPolicy, PolicyCompiler
from repro.core.pipeline import PipelineParams
from repro.core.policy import Policy, PolicyInterpreter, UnitState
from repro.core.smbm import SMBM
from repro.engine.codegen import PlanCodegen
from repro.errors import CellFault, ConfigurationError, IntegrityError

__all__ = ["CellShadow"]

Position = tuple[int, int]


class CellShadow:
    """The placement clock and the hardware model of one filter module.

    ``self_healing`` routes around a dead Cell a row meets and replays the
    row; ``sanitize`` holds every kernel row to the Cells (output and unit
    state).  ``on_move``, a bound method of the owner, is called whenever a
    placement is installed — at construction, on a hot-swap and on every
    fail-around recompile — so the owner can drop the caches a plan change
    invalidates; it is held weakly, so owner and shadow form no reference
    cycle and a dropped module is freed at once.
    """

    def __init__(self, params: PipelineParams | None, schema: TableSchema,
                 *, lfsr_seed: int, reserved_cells: Iterable[Position],
                 input_lines: Iterable[int] | None, self_healing: bool,
                 sanitize: bool, on_move: Callable[[], None],
                 labels: dict[str, str]):
        self._params = params
        self._schema = schema
        self._lfsr_seed = lfsr_seed
        self.reserved_cells = frozenset(
            (int(stage), int(index)) for stage, index in reserved_cells)
        self.input_lines = (None if input_lines is None
                            else frozenset(int(line) for line in input_lines))
        self.self_healing = self_healing
        self.sanitize = sanitize
        self._on_move = weakref.WeakMethod(on_move)
        # Physical faults: everything ever injected (re-armed on every
        # recompiled pipeline; a wedge keyed (stage, index, side)) vs the
        # Cells *detected* so far, which compilation routes around.
        self._dead: set[Position] = set()
        self._stuck: dict[tuple[int, int, int], int] = {}
        self._routed_around: set[Position] = set()
        self.compiled: CompiledPolicy
        #: An injected fault sits on a Cell the placement does not exclude.
        self.serves = False
        #: The Cells serve (a fault is live) or check (``sanitize``) rows.
        self.takes_rows = sanitize
        # Faults are rare events: these instruments live off the per-packet
        # path and carry the tenant label, so a fault in one tenant's slice
        # never moves another's series.
        self._registry = registry = obs.get_registry()
        self._labels = labels
        self._obs_cell_dead = registry.counter(
            "faults_detected_total", {"kind": "cell_dead", **labels},
            help="dead Cells detected (CellFault) and routed around")
        self._obs_cell_stuck = registry.counter(
            "faults_detected_total", {"kind": "cell_stuck", **labels},
            help="silently corrupting Cells localized by self-test")
        self._obs_repair_ns = registry.histogram(
            "repair_latency_ns", {"component": "filter_module", **labels},
            help="fault-to-recompiled recovery wall time (ns, pow2 buckets)")
        # This shadow's share of the live policy's ``degraded_mode`` series
        # (shadows with the same labels add up); nothing is filed until the
        # first install, so it starts on an unregistered gauge.
        self._obs_degraded, self._degraded = obs.Gauge("degraded_mode"), 0

    # -- the placement clock ------------------------------------------------------

    def place(self, policy: Policy) -> CompiledPolicy:
        """Map ``policy`` onto the Cells this module may use — its slice
        less the Cells routed around — and re-arm the physical faults on
        the result (Cells the compilation excludes are killed by it).
        Raises :class:`~repro.errors.CompilationError` only when the policy
        truly does not fit those Cells; nothing is installed."""
        compiled = PolicyCompiler(self._params).compile(
            policy, lfsr_seed=self._lfsr_seed,
            dead_cells=self.reserved_cells | self._routed_around,
            input_lines=self.input_lines, schema=self._schema,
        )
        pipeline = compiled.pipeline
        for pos in self._dead - compiled.dead_cells:
            pipeline.cell_at(*pos).kill()
        for (stage, index, side), stuck in self._stuck.items():
            if (stage, index) not in compiled.dead_cells:
                pipeline.cell_at(stage, index).inject_stuck(side, stuck)
        return compiled

    def install(self, compiled: CompiledPolicy) -> None:
        """Make ``compiled`` the live placement, move this shadow's share of
        ``degraded_mode`` to its policy's series (the series it leaves
        drops that share, so labels stay as few as the policies installed)
        and tell the owner."""
        self.compiled = compiled
        self._arm()
        gauge = self._registry.gauge(
            "degraded_mode", {"policy": compiled.policy.name, **self._labels},
            help="Cells currently routed around (0 = healthy hardware)")
        self._obs_degraded.dec(self._degraded)
        self._obs_degraded, self._degraded = gauge, len(self._routed_around)
        gauge.inc(self._degraded)
        self._on_move()()

    def _arm(self) -> None:
        """The one rule: the Cells serve while an injected fault sits on a
        Cell the placement does not exclude, and check under ``sanitize``."""
        faulty = self._dead | {(stage, index) for stage, index, _ in self._stuck}
        self.serves = bool(faulty - self.compiled.dead_cells)
        self.takes_rows = self.serves or self.sanitize

    # -- physical faults ------------------------------------------------------------

    def kill(self, stage: int, index: int) -> None:
        """The Cell at (stage, index) dies, for good: it stays dead across
        recompiles and is met (loud :class:`~repro.errors.CellFault`) by
        the next row that walks it, or by :meth:`self_test`."""
        self.compiled.pipeline.cell_at(stage, index).kill()
        self._dead.add((stage, index))
        self._arm()

    def stick(self, stage: int, index: int, side: int, stuck: int) -> None:
        """Output column ``side`` of a Cell wedges at ``stuck``: silent
        corruption, which only :meth:`self_test` detects and localises."""
        self.compiled.pipeline.cell_at(stage, index).inject_stuck(side, stuck)
        self._stuck[stage, index, side] = stuck
        self._arm()

    def unstick(self, stage: int, index: int, side: int) -> None:
        """Undo :meth:`stick` (an injector reverting a wedge that turned
        out to be unobservable on the programmed policy)."""
        self.compiled.pipeline.cell_at(stage, index).clear_stuck(side)
        self._stuck.pop((stage, index, side), None)
        self._arm()

    def targets(self) -> list[Position]:
        """Active Cells of the placement that are not dead (a Cell routed
        around is dead by compilation): where a new fault is observable."""
        pipeline = self.compiled.pipeline
        return [pos for pos in pipeline.active_cells()
                if not pipeline.cell_at(*pos).is_dead]

    @property
    def routed_around(self) -> frozenset[Position]:
        """Detected-faulty Cells the current placement avoids."""
        return frozenset(self._routed_around)

    @property
    def degraded(self) -> bool:
        """True while the policy runs on a reduced set of Cells."""
        return bool(self._routed_around)

    # -- rows --------------------------------------------------------------------

    def run(self, smbm: SMBM, mask: int | None, kernel: PlanCodegen,
            units: UnitState) -> int:
        """One row the owner's memo cannot answer, over ``table ∩ mask``
        (``None`` = the full table): the kernel's, unless the Cells take
        it — then the walk, failing around each dead Cell it meets when
        ``self_healing`` is set."""
        while self.takes_rows:
            try:
                return self._walk(smbm, mask, kernel, units)
            except CellFault as fault:
                if not self.self_healing:
                    raise
                self._heal_dead(fault)
        return kernel.evaluate(smbm, mask)

    def _walk(self, smbm: SMBM, mask: int | None, kernel: PlanCodegen,
              units: UnitState) -> int:
        """The Cells walk the row from the owner's unit state.  Serving,
        they store the units back; checking, the kernel then steps the
        owner's units and must agree with the Cells on both output and
        state.  Nothing is stored before the whole walk, so a fault
        mid-walk leaves the units where they were for the replay."""
        compiled = self.compiled
        stateful = not compiled.stateless
        if stateful:
            compiled.restore_units(units.export())
        out = (compiled.evaluate(smbm) if mask is None else
               compiled.evaluate_restricted(smbm, mask)).value
        if self.serves:
            if stateful:
                units.restore(compiled.export_units())
            return out
        fast = self._agreed(kernel.evaluate(smbm, mask), "codegen kernel",
                            out, "the interpreted plan")
        if stateful and units.export() != compiled.export_units():
            raise IntegrityError(
                f"sanitizer: codegen kernel unit state {units.export()} "
                f"disagrees with the interpreted plan's "
                f"{compiled.export_units()}", component="filter_module")
        return fast

    def _agreed(self, fast: int, fast_name: str,
                reference: int, reference_name: str) -> int:
        """The one optimised-result-vs-reference compare: returns the
        agreed output or raises :class:`~repro.errors.IntegrityError`."""
        if fast != reference:
            raise IntegrityError(
                f"sanitizer: {fast_name} output {fast:#x} disagrees with "
                f"{reference_name} {reference:#x} on policy "
                f"{self.compiled.policy.name!r}", component="filter_module")
        return fast

    def check(self, smbm: SMBM, reference: PolicyInterpreter) -> int:
        """The placed Cells against the naive ``reference`` on the live
        table.  Stateless plans only: a stateful unit's or a feedback
        register's outputs advance per evaluation, so the two legitimately
        diverge."""
        if not self.compiled.stateless:
            raise ConfigurationError(
                "sanitize_check and self_test require a stateless policy: "
                "stateful units legitimately diverge from the naive reference")
        return self._agreed(self.compiled.evaluate(smbm).value, "fast path",
                            reference.evaluate(smbm).value,
                            "the naive reference")

    # -- detection and fail-around ------------------------------------------------

    def self_test(self, smbm: SMBM,
                  reference: PolicyInterpreter) -> list[dict[str, object]]:
        """Built-in self-test: :meth:`check`, localising and healing every
        fault it finds, until the Cells agree with ``reference``.

        Detection stands on that independent reference; localisation needs
        only a fault-free clone: on mismatch, each active Cell is replayed
        against a fresh Cell of the same configuration *on the inputs it
        actually saw*, so exactly the corrupted Cells are implicated (and a
        disagreement no Cell accounts for — a corrupt index, a mis-compile —
        is reported, not pinned on healthy hardware).  Dead Cells met along
        the way are healed the same way, ``self_healing`` or not.  Returns
        the faults found, e.g. ``[{"stage": 2, "index": 0, "kind":
        "cell_stuck"}]`` (empty = healthy).
        """
        healed: list[dict[str, object]] = []
        while True:
            try:
                try:
                    self.check(smbm, reference)
                    return healed
                except IntegrityError:
                    healed.extend(self._localize_stuck(smbm))
            except CellFault as fault:
                stage, index = self._heal_dead(fault)
                healed.append(
                    {"stage": stage, "index": index, "kind": "cell_dead"})

    def _localize_stuck(self, smbm: SMBM) -> list[dict[str, object]]:
        """Replay each active Cell against a fault-free clone on the masks
        it saw; route around the liars."""
        t0 = time.perf_counter_ns()
        probes = self.compiled.pipeline.evaluate_probed(smbm)
        chain = self.compiled.params.chain_length
        liars = [
            (stage, index)
            for (stage, index), (in1, in2, out1, out2) in sorted(probes.items())
            if Cell(chain, self.compiled.config.stages[stage - 1].cells[index]
                    ).evaluate(in1, in2, smbm) != (out1, out2)
        ]
        if not liars:
            raise IntegrityError(
                "fast path disagrees with the naive reference but no Cell "
                "could be localized", component="filter_module")
        self._route_around(liars, self._obs_cell_stuck, t0)
        return [{"stage": stage, "index": index, "kind": "cell_stuck"}
                for stage, index in liars]

    def _heal_dead(self, fault: CellFault) -> Position:
        """Route around the dead Cell a CellFault just reported."""
        if fault.stage is None or fault.index is None:
            raise fault  # unlocatable: nothing to route around
        pos = (fault.stage, fault.index)
        if pos in self._routed_around:
            raise fault  # already excluded yet faulted again: give up loudly
        self._route_around([pos], self._obs_cell_dead, time.perf_counter_ns())
        return pos

    def _route_around(self, cells: list[Position], detected: obs.Counter,
                      t0: int) -> None:
        """The one repair step: mark ``cells`` routed around and recompile
        the live policy onto the rest (the marks roll back if that fails),
        then count them on ``detected`` and time the repair from ``t0``."""
        self._routed_around.update(cells)
        try:
            self.install(self.place(self.compiled.policy))
        except Exception:
            self._routed_around.difference_update(cells)
            raise
        detected.inc(len(cells))
        self._obs_repair_ns.observe(time.perf_counter_ns() - t0)

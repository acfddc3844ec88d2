"""Compiling filter policies onto the serial chain pipeline.

The compiler maps a :class:`~repro.core.policy.Policy` DAG onto a
:class:`~repro.core.pipeline.FilterPipeline` of given dimensions
``(n, k, f, chain_length)``, producing the compile-time configuration the
paper's Figure 14 illustrates: opcodes for every K-UFPU and BFPU, crossbar
wirings for every stage, and the output-line assignment.  Configurations are
fixed at compile time; nothing reconfigures at runtime (section 5.3.2).

Mapping rules (all visible in Figure 14):

* a **binary operator** occupies a whole Cell; unary operators feeding it
  directly are *fused* into the same Cell's K-UFPUs (e.g. ``cpu<X ∩ mem>Y``
  is one Cell), provided the unary result has no other consumer;
* a standalone **unary operator** occupies one Cell side (its BFPU is a
  passthrough mux);
* a value needed at a later stage than it was produced is carried forward
  through **no-op passthrough** sides, consuming crossbar fan-out along the
  way;
* every stage's crossbar may tap each previous-stage line at most ``f``
  times; the ``n`` original input lines (each carrying the full resource
  table) provide ``n*f`` table taps at stage 1;
* a :class:`~repro.core.policy.Conditional` root compiles both branches to
  the last stage and records a MUX plan, executed by the RMT stage after
  the filter module.

Exceeding any physical resource raises
:class:`~repro.errors.CompilationError` with a description of what ran out;
a DAG with more operator levels than the ``k`` stages can host is refused
before any placement is tried (each DAG walk here visits a node once,
however many paths share it).

The compiler decides *placement* only.  What a policy means in software —
the naive reference, the batch engine, the ``codegen`` kernel — is lowered
from the :class:`~repro.core.policy.Policy` by the layers above and is not
attached to a :class:`CompiledPolicy`: a recompile onto other Cells leaves
all of it valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro import obs
from repro.core.bfpu import BinaryConfig
from repro.core.bitvector import BitVector
from repro.core.cell import CellConfig
from repro.core.kufpu import KUnaryConfig
from repro.core.operators import BinaryOp
from repro.core.pipeline import (
    FilterPipeline,
    PipelineConfig,
    PipelineParams,
    StageConfig,
)
from repro.core.policy import (
    Binary,
    Conditional,
    Node,
    Policy,
    TableRef,
    Unary,
    postorder,
)
from repro.core.smbm import SMBM
from repro.errors import CompilationError, ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.analysis.findings import Finding
    from repro.analysis.verifier import TableSchema

__all__ = ["PolicyCompiler", "CompiledPolicy", "MuxPlan"]

_NOOP_K = KUnaryConfig.no_op()


@dataclass(frozen=True)
class _Wire:
    """A value travelling the pipeline: output ``line`` of ``stage``.

    Stage 0 denotes the pipeline inputs; ``line is None`` there means "any
    input line" (they all carry the full resource table).
    """

    stage: int
    line: int | None


@dataclass(frozen=True)
class MuxPlan:
    """Post-pipeline MUX for a conditional policy (RMT stage, section 4.2.3).

    By default the MUX selects output ``primary_line`` when it is non-empty,
    else ``fallback_line``.  The RMT stage hosting the MUX may instead drive
    the select with any predicate it can compute (over packet metadata,
    registers, ...): pass ``mux_select`` to
    :meth:`CompiledPolicy.evaluate` to model that externally-computed
    condition.
    """

    primary_line: int
    fallback_line: int


class _SideUse:
    """One allocated Cell side: a unary op applied to a source wire."""

    __slots__ = ("kconfig", "source")

    def __init__(self, kconfig: KUnaryConfig, source: _Wire):
        self.kconfig = kconfig
        self.source = source


class _CellState:
    """Allocation state of one physical Cell during compilation."""

    __slots__ = ("sides", "binary")

    def __init__(self) -> None:
        self.sides: list[_SideUse | None] = [None, None]
        self.binary: BinaryConfig | None = None

    def free_side(self) -> int | None:
        for i, side in enumerate(self.sides):
            if side is None:
                return i
        return None

    def is_empty(self) -> bool:
        return self.sides == [None, None] and self.binary is None


class PolicyCompiler:
    """Compiles policies for a pipeline of fixed physical dimensions."""

    def __init__(self, params: PipelineParams | None = None):
        self._params = params if params is not None else PipelineParams()

    @property
    def params(self) -> PipelineParams:
        return self._params

    def compile(
        self,
        policy: Policy,
        *,
        lfsr_seed: int = 1,
        dead_cells: "Iterable[tuple[int, int]] | None" = None,
        input_lines: "Iterable[int] | None" = None,
        verify: bool = True,
        schema: "TableSchema | None" = None,
    ) -> "CompiledPolicy":
        """Map ``policy`` onto the pipeline, or raise CompilationError.

        Every node :attr:`~repro.core.policy.Policy.feedback` binds is also
        carried to a pipeline output (a *tap*, e.g. DRILL's "examined
        samples" set), where the compiled policy reads it back after each
        traversal.

        ``dead_cells`` names physical Cells — ``(stage, index)`` pairs,
        stage 1-based — that must not be allocated (fail-around after a
        hardware fault): the policy is mapped onto the surviving Cells, and
        ``CompilationError`` is raised only when they truly cannot host it.

        ``input_lines`` restricts the pipeline input lines the plan may tap
        (tenant slicing: each tenant owns the input lines its Cell columns
        drive).  "Any input" table references draw only from the allowed
        set, and an explicitly indexed
        :class:`~repro.core.policy.TableRef` outside it is rejected with
        rule TH014 — the static half of cross-tenant isolation.

        ``verify`` (default on) runs the static plan verifier
        (:class:`repro.analysis.verifier.PlanVerifier`) over the result:
        error-level findings raise :class:`~repro.errors.CompilationError`
        with their rule id; warning-level lints are recorded on
        :attr:`CompiledPolicy.lint_findings` and counted through the obs
        registry.  ``schema`` (a
        :class:`repro.analysis.verifier.TableSchema`) enables the
        SMBM-dependent checks — unknown metrics and timing closure against
        the paper's 1 GHz switch target
        (:data:`repro.core.area.TARGET_CLOCK_GHZ`).
        ``verify=False`` is the escape hatch for deliberately-degenerate
        plans (and for the verifier's own trial compilations).
        """
        with obs.get_tracer().span("policy_compile") as span:
            compiled = self._compile(
                policy, lfsr_seed=lfsr_seed,
                dead_cells=dead_cells, input_lines=input_lines,
            )
            # Attribute the emitted configuration's deterministic hardware
            # latency, so traces carry both wall time and modelled cycles.
            span.add_cycles(compiled.latency_cycles)
        if verify:
            # Late import: repro.analysis.verifier imports this module's
            # types for its trial-compile helper.
            from repro.analysis.verifier import PlanVerifier

            verifier = PlanVerifier(self._params, schema=schema)
            report = verifier.verify_compiled(compiled)
            report.emit()
            report.raise_if_errors()
            compiled.attach_lint_findings(report.warnings)
        return compiled

    def _compile(
        self,
        policy: Policy,
        *,
        lfsr_seed: int,
        dead_cells: "Iterable[tuple[int, int]] | None" = None,
        input_lines: "Iterable[int] | None" = None,
    ) -> "CompiledPolicy":
        dead = frozenset(
            (int(stage), int(index)) for stage, index in (dead_cells or ())
        )
        allowed = (
            None if input_lines is None
            else frozenset(int(line) for line in input_lines)
        )
        if allowed is not None:
            if not allowed:
                raise ConfigurationError(
                    "input_lines must name at least one pipeline input"
                )
            for line in allowed:
                if not 0 <= line < self._params.n:
                    raise ConfigurationError(
                        f"allowed input line {line} out of range "
                        f"[0, {self._params.n})"
                    )
        for stage, index in dead:
            if not 1 <= stage <= self._params.k:
                raise ConfigurationError(
                    f"dead cell stage {stage} out of range [1, {self._params.k}]"
                )
            if not 0 <= index < self._params.cells_per_stage:
                raise ConfigurationError(
                    f"dead cell index {index} out of range "
                    f"[0, {self._params.cells_per_stage})"
                )
        state = _CompileState(self._params, dead_cells=dead,
                              input_lines=allowed)
        root = policy.root
        state.prepare(policy)
        if isinstance(root, Conditional):
            primary = state.compile_node(root.primary)
            fallback = state.compile_node(root.fallback)
            primary = state.bring_to(primary, self._params.k)
            fallback = state.bring_to(fallback, self._params.k)
            assert primary.line is not None and fallback.line is not None
            mux = MuxPlan(primary.line, fallback.line)
            output_line = primary.line
        else:
            wire = state.bring_to(state.compile_node(root), self._params.k)
            assert wire.line is not None
            mux = None
            output_line = wire.line
        tap_lines: dict[int, int] = {}
        for index, node in policy.feedback.items():
            wire = state.bring_to(state.compile_node(node), self._params.k)
            assert wire.line is not None
            tap_lines[index] = wire.line
        config = state.emit()
        return CompiledPolicy(
            policy=policy,
            params=self._params,
            config=config,
            output_line=output_line,
            mux=mux,
            tap_lines=tap_lines,
            lfsr_seed=lfsr_seed,
            dead_cells=dead,
        )


class _CompileState:
    """Mutable allocation state for one compilation."""

    def __init__(self, params: PipelineParams,
                 dead_cells: frozenset[tuple[int, int]] = frozenset(),
                 input_lines: frozenset[int] | None = None):
        self.params = params
        # Physical Cells that must never be allocated (hardware faults).
        self.dead_cells = dead_cells
        # Pipeline inputs this plan may tap (None = all of them); tenant
        # slicing confines a plan to the lines its own columns drive.
        self.input_lines = input_lines
        # stages[t] for t in 1..k, index 0 unused.
        self.cells: list[list[_CellState]] = [
            [_CellState() for _ in range(params.cells_per_stage)]
            for _ in range(params.k + 1)
        ]
        # Crossbar fan-out accounting: taps[t][line] = number of stage-t
        # crossbar ports wired to line `line` of stage t-1.
        self.taps: list[list[int]] = [
            [0] * params.n for _ in range(params.k + 1)
        ]
        # Materialised node wires, per node id, keyed by stage.
        self.wires: dict[int, dict[int, _Wire]] = {}
        # How many parents each node has (fusion is only legal at 1).
        self.parent_count: dict[int, int] = {}
        # Input lines carrying feedback registers (explicit TableRefs);
        # "any table" taps must avoid these.
        self.reserved_inputs: set[int] = set()

    # -- resource accounting ------------------------------------------------------

    def _tap(self, stage: int, source: _Wire) -> int:
        """Consume one crossbar tap at ``stage`` for ``source``; return line."""
        assert source.stage == stage - 1, (source, stage)
        if source.line is not None:
            line = source.line
            if self.taps[stage][line] >= self.params.f:
                raise CompilationError(
                    f"fan-out exhausted: line {line} of stage {source.stage} "
                    f"already feeds f={self.params.f} ports of stage {stage}",
                    rule="TH005", stage=stage,
                )
        else:
            # "Any input line": pick the least-tapped original input that is
            # not reserved for a feedback register and, under tenant
            # slicing, belongs to this plan's allowed input set.
            allowed = (
                range(self.params.n) if self.input_lines is None
                else sorted(self.input_lines)
            )
            candidates = [
                (self.taps[stage][l], l) for l in allowed
                if self.taps[stage][l] < self.params.f
                and l not in self.reserved_inputs
            ]
            if not candidates:
                raise CompilationError(
                    f"all {len(list(allowed))} allowed pipeline inputs "
                    f"exhausted their f={self.params.f} stage-1 taps "
                    f"(reserved: {sorted(self.reserved_inputs)})",
                    rule="TH005", stage=stage,
                )
            line = min(candidates)[1]
        self.taps[stage][line] += 1
        return line

    def _alloc_side(self, stage: int) -> tuple[int, int]:
        """A free unary side at ``stage``: (cell index, side index)."""
        if not 1 <= stage <= self.params.k:
            raise CompilationError(
                f"policy needs a stage {stage} but the pipeline has "
                f"k={self.params.k}",
                rule="TH009", stage=stage,
            )
        for c, cell in enumerate(self.cells[stage]):
            if (stage, c) in self.dead_cells:
                continue  # hardware fault: route around this Cell
            if cell.binary is not None:
                continue  # both sides belong to the binary op
            side = cell.free_side()
            if side is not None:
                return c, side
        raise CompilationError(
            f"no free Cell side at stage {stage}: all {self.params.n} "
            "unary slots in use or dead",
            rule="TH009", stage=stage,
        )

    def _alloc_cell(self, stage: int) -> int:
        """A whole free Cell at ``stage`` for a binary operator."""
        if not 1 <= stage <= self.params.k:
            raise CompilationError(
                f"policy needs a stage {stage} but the pipeline has "
                f"k={self.params.k}",
                rule="TH009", stage=stage,
            )
        for c, cell in enumerate(self.cells[stage]):
            if (stage, c) in self.dead_cells:
                continue  # hardware fault: route around this Cell
            if cell.is_empty():
                return c
        raise CompilationError(
            f"no free Cell at stage {stage} for a binary operator: all "
            f"{self.params.cells_per_stage} Cells partly or fully in use "
            "or dead",
            rule="TH009", stage=stage,
        )

    # -- checkpoint / rollback ------------------------------------------------------

    def _snapshot(self) -> tuple:
        """Copy all allocation state, so a failed placement attempt can be
        rolled back without leaking the resources it consumed."""
        cells_copy: list[list[_CellState]] = []
        for row in self.cells:
            new_row = []
            for cell in row:
                c = _CellState()
                c.sides = list(cell.sides)
                c.binary = cell.binary
                new_row.append(c)
            cells_copy.append(new_row)
        taps_copy = [list(row) for row in self.taps]
        wires_copy = {nid: dict(by_stage) for nid, by_stage in self.wires.items()}
        return cells_copy, taps_copy, wires_copy

    def _restore(self, snap: tuple) -> None:
        self.cells, self.taps, self.wires = snap

    # -- wire management ----------------------------------------------------------

    def _record(self, node: Node, wire: _Wire) -> _Wire:
        self.wires.setdefault(node.node_id, {})[wire.stage] = wire
        return wire

    def bring_to(self, wire: _Wire, stage: int) -> _Wire:
        """Carry a wire forward to ``stage`` through no-op passthroughs."""
        while wire.stage < stage:
            wire = self._place_step(_NOOP_K, wire, wire.stage + 1)
        if wire.stage != stage:
            raise CompilationError(
                f"value produced at stage {wire.stage} cannot feed stage "
                f"{stage}: the pipeline is feed-forward",
                rule="TH006", stage=stage,
            )
        return wire

    def _latest_wire(self, node: Node) -> _Wire | None:
        by_stage = self.wires.get(node.node_id)
        if not by_stage:
            return None
        return by_stage[max(by_stage)]

    # -- placement ---------------------------------------------------------------

    def _place_step(self, kconfig: KUnaryConfig, source: _Wire,
                    stage: int) -> _Wire:
        """Place one unary op at exactly ``stage``; source must be adjacent.

        No searching, no passthrough insertion — this is the primitive both
        :meth:`bring_to` (with a no-op config) and the stage-searching
        placers build on.
        """
        assert source.stage == stage - 1, (source, stage)
        c, side = self._alloc_side(stage)
        line = self._tap(stage, source)
        self.cells[stage][c].sides[side] = _SideUse(kconfig, _Wire(stage - 1, line))
        return _Wire(stage, 2 * c + side)

    def _place_unary(self, kconfig: KUnaryConfig, source: _Wire,
                     min_stage: int) -> _Wire:
        """Place one unary op at the earliest feasible stage."""
        if kconfig.k > self.params.chain_length:
            raise CompilationError(
                f"parallel chain K={kconfig.k} exceeds the physical K-UFPU "
                f"chain length {self.params.chain_length}",
                rule="TH004", operator=kconfig.describe(),
            )
        last_error: CompilationError | None = None
        for stage in range(max(min_stage, source.stage + 1), self.params.k + 1):
            snap = self._snapshot()
            try:
                src = self.bring_to(source, stage - 1)
                return self._place_step(kconfig, src, stage)
            except CompilationError as exc:
                self._restore(snap)
                last_error = exc
        raise CompilationError(
            f"could not place {kconfig.describe()} in any stage "
            f">= {min_stage}: {last_error}",
            rule=(last_error.rule or "TH009") if last_error else "TH009",
            stage=last_error.stage if last_error else None,
            operator=kconfig.describe(),
        )

    def _place_binary(self, opcode: BinaryOp, choice: int | None,
                      left_cfg: KUnaryConfig, left_src: _Wire,
                      right_cfg: KUnaryConfig, right_src: _Wire) -> _Wire:
        """Place a (possibly unary-fused) binary op in a whole Cell."""
        for cfg in (left_cfg, right_cfg):
            if cfg.k > self.params.chain_length:
                raise CompilationError(
                    f"parallel chain K={cfg.k} exceeds the physical K-UFPU "
                    f"chain length {self.params.chain_length}",
                    rule="TH004", operator=cfg.describe(),
                )
        min_stage = max(left_src.stage, right_src.stage) + 1
        last_error: CompilationError | None = None
        for stage in range(min_stage, self.params.k + 1):
            snap = self._snapshot()
            try:
                c = self._alloc_cell(stage)
                lsrc = self.bring_to(left_src, stage - 1)
                rsrc = self.bring_to(right_src, stage - 1)
                lline = self._tap(stage, lsrc)
                rline = self._tap(stage, rsrc)
            except CompilationError as exc:
                self._restore(snap)
                last_error = exc
                continue
            cell = self.cells[stage][c]
            cell.sides[0] = _SideUse(left_cfg, _Wire(stage - 1, lline))
            cell.sides[1] = _SideUse(right_cfg, _Wire(stage - 1, rline))
            if opcode is BinaryOp.NO_OP:
                cell.binary = BinaryConfig(opcode, choice=choice)
            else:
                cell.binary = BinaryConfig(opcode)
            return _Wire(stage, 2 * c)
        raise CompilationError(
            f"could not place binary {opcode} in any stage "
            f">= {min_stage}: {last_error}",
            rule=(last_error.rule or "TH009") if last_error else "TH009",
            stage=last_error.stage if last_error else None,
            operator=str(opcode),
        )

    # -- recursive compilation -----------------------------------------------------

    def prepare(self, policy: Policy) -> None:
        """One pass over the policy DAG, each node once however many paths
        reach it: count parents per edge (fusion is only legal at 1; a
        feedback tap is one more consumer), check and collect the explicitly
        indexed input lines, and refuse a DAG taller than the pipeline
        before anything recursive runs."""
        root = policy.root
        self.parent_count[root.node_id] = 1
        # Lower bound on the stage a node's value appears at: a stage
        # hosts at most one unary and one binary level (a binary's Cell
        # may absorb each operand's unary).
        depth: dict[int, int] = {}
        for node in postorder(root):
            below = node.children()
            for child in below:
                self.parent_count[child.node_id] = (
                    self.parent_count.get(child.node_id, 0) + 1
                )
            if isinstance(node, TableRef) and node.input_index is not None:
                if not 0 <= node.input_index < self.params.n:
                    raise CompilationError(
                        f"input index {node.input_index} out of range for a "
                        f"pipeline with n={self.params.n} inputs",
                        rule="TH006", operator=node.describe(),
                    )
                if (self.input_lines is not None
                        and node.input_index not in self.input_lines):
                    raise CompilationError(
                        f"{node.describe()} taps input line "
                        f"{node.input_index}, outside this tenant's allowed "
                        f"lines {sorted(self.input_lines)}",
                        rule="TH014", operator=node.describe(),
                    )
                self.reserved_inputs.add(node.input_index)
            if isinstance(node, Binary):
                below = tuple(c.child if isinstance(c, Unary) else c
                              for c in below)
            level = max((depth[c.node_id] for c in below), default=-1)
            # The conditional's MUX sits after the pipeline: no stage.
            depth[node.node_id] = (
                level if isinstance(node, Conditional) else level + 1
            )
        for bound in policy.feedback.values():
            self.parent_count[bound.node_id] += 1
        if depth[root.node_id] > self.params.k:
            raise CompilationError(
                f"policy is {depth[root.node_id]} operator levels deep but "
                f"the pipeline has k={self.params.k} stages",
                rule="TH009", stage=self.params.k,
            )

    def _fusable(self, node: Node) -> bool:
        """A node a binary parent may absorb into its Cell's K-UFPU."""
        if isinstance(node, TableRef):
            return True
        return (
            isinstance(node, Unary)
            and self.parent_count.get(node.node_id, 1) == 1
            and node.node_id not in self.wires
        )

    @staticmethod
    def _table_wire(node: TableRef) -> _Wire:
        return _Wire(0, node.input_index)

    def _operand(self, node: Node) -> tuple[KUnaryConfig, _Wire]:
        """Resolve a binary operand: fused unary config + its source wire."""
        if self._fusable(node):
            if isinstance(node, TableRef):
                return _NOOP_K, self._table_wire(node)
            assert isinstance(node, Unary)
            return node.config, self._source_of(node.child)
        return _NOOP_K, self.compile_node(node)

    def _source_of(self, node: Node) -> _Wire:
        if isinstance(node, TableRef):
            return self._table_wire(node)
        return self.compile_node(node)

    def compile_node(self, node: Node) -> _Wire:
        """Materialise ``node``; reuse the wire if already materialised."""
        existing = self._latest_wire(node)
        if existing is not None:
            return existing
        if isinstance(node, TableRef):
            # A bare table reference only needs a wire when consumed by a
            # later stage; materialise it as a stage-1 passthrough.
            return self._record(
                node, self._place_unary(_NOOP_K, self._table_wire(node), 1)
            )
        if isinstance(node, Unary):
            src = self._source_of(node.child)
            return self._record(
                node, self._place_unary(node.config, src, src.stage + 1)
            )
        if isinstance(node, Binary):
            left_cfg, left_src = self._operand(node.left)
            right_cfg, right_src = self._operand(node.right)
            return self._record(
                node,
                self._place_binary(
                    node.opcode, node.choice, left_cfg, left_src,
                    right_cfg, right_src,
                ),
            )
        raise CompilationError(
            f"cannot compile node type {type(node).__name__}",
            rule="TH006", operator=type(node).__name__,
        )

    # -- emission -----------------------------------------------------------------

    def emit(self) -> PipelineConfig:
        stages: list[StageConfig] = []
        for stage in range(1, self.params.k + 1):
            wiring: dict[int, int] = {}
            cell_cfgs: list[CellConfig] = []
            for c, cell in enumerate(self.cells[stage]):
                k1 = cell.sides[0].kconfig if cell.sides[0] else _NOOP_K
                k2 = cell.sides[1].kconfig if cell.sides[1] else _NOOP_K
                if cell.sides[0]:
                    assert cell.sides[0].source.line is not None
                    wiring[2 * c] = cell.sides[0].source.line
                if cell.sides[1]:
                    assert cell.sides[1].source.line is not None
                    wiring[2 * c + 1] = cell.sides[1].source.line
                bfpu1 = cell.binary if cell.binary else BinaryConfig.passthrough(0)
                cell_cfgs.append(
                    CellConfig(
                        kufpu1=k1,
                        kufpu2=k2,
                        bfpu1=bfpu1,
                        bfpu2=BinaryConfig.passthrough(1),
                    )
                )
            stages.append(StageConfig(wiring=wiring, cells=cell_cfgs))
        return PipelineConfig(stages=stages)


class CompiledPolicy:
    """A policy mapped onto a runnable filter pipeline.

    ``evaluate`` runs one packet's filtering: the pipeline produces its
    output tables and, for conditional policies, the post-pipeline RMT MUX
    picks the primary output when non-empty, else the fallback.

    Each :attr:`~repro.core.policy.Policy.feedback` register lives here,
    beside the pipeline's LFSRs and round-robin pointers: ``tap_lines``
    maps input line ``i`` to the output line its bound node was routed to,
    every traversal presents the register on line ``i`` and reads the tap
    back, and a recompile or :meth:`reset_state` restarts it from zeros
    exactly as it restarts the units.
    """

    def __init__(self, policy: Policy, params: PipelineParams,
                 config: PipelineConfig, output_line: int,
                 mux: MuxPlan | None, tap_lines: dict[int, int] | None = None,
                 lfsr_seed: int = 1,
                 dead_cells: Iterable[tuple[int, int]] = ()):
        self._policy = policy
        self._params = params
        self._config = config
        self._output_line = output_line
        self._mux = mux
        self._tap_lines = dict(tap_lines or {})
        self._dead_cells = frozenset(dead_cells)
        # Warning-level verifier findings, attached post-verification.
        self._lint_findings: tuple["Finding", ...] = ()
        self._registers: dict[int, int] = {}
        # Memoizable iff nothing keeps cross-packet state: no programmed
        # unit and no feedback register.
        self._stateless = config.is_stateless() and not self._tap_lines
        # Only these output lines are ever read back; the pipeline prunes
        # everything that cannot reach them.
        live = {output_line} | set(self._tap_lines.values())
        if mux is not None:
            live |= {mux.primary_line, mux.fallback_line}
        self._pipeline = FilterPipeline(
            params, config, lfsr_seed=lfsr_seed, live_outputs=live,
        )
        # The faults are physical: the freshly modelled pipeline must carry
        # them too, so a mis-compilation that routed through a dead Cell
        # would fault loudly instead of silently computing.
        for stage, index in self._dead_cells:
            self._pipeline.cell_at(stage, index).kill()

    @property
    def policy(self) -> Policy:
        return self._policy

    @property
    def params(self) -> PipelineParams:
        return self._params

    @property
    def config(self) -> PipelineConfig:
        return self._config

    @property
    def output_line(self) -> int:
        return self._output_line

    @property
    def mux(self) -> MuxPlan | None:
        return self._mux

    @property
    def pipeline(self) -> FilterPipeline:
        """The physical pipeline realising this policy (fault hooks live
        on its Cells)."""
        return self._pipeline

    @property
    def dead_cells(self) -> frozenset[tuple[int, int]]:
        """Physical Cells this compilation was told to route around."""
        return self._dead_cells

    @property
    def stateless(self) -> bool:
        """True when :func:`~repro.core.policy.stateless_blockers` is
        empty: no round-robin/random unit, no feedback register.

        A stateless policy's output depends only on the SMBM contents (and
        a candidate mask), so callers may cache results keyed on
        :attr:`~repro.core.smbm.SMBM.version`.
        """
        return self._stateless

    @property
    def lint_findings(self) -> tuple["Finding", ...]:
        """Warning-level verifier findings attached at compile time.

        Empty when compiled with ``verify=False`` or when the plan was
        clean; error-level findings never appear here (they raise).
        """
        return self._lint_findings

    def attach_lint_findings(self, findings: list["Finding"]) -> None:
        self._lint_findings = tuple(findings)

    @property
    def latency_cycles(self) -> int:
        return self._params.latency_cycles

    def reset_state(self) -> None:
        self._pipeline.reset_state()
        self._registers.clear()

    @property
    def tap_lines(self) -> dict[int, int]:
        """Feedback input line -> the output line its bound node is read
        back from."""
        return dict(self._tap_lines)

    def _run(self, smbm: SMBM, mask: int | None = None) -> list[BitVector]:
        """One traversal: table lines carry ``table ∩ mask``, each feedback
        line its register, which is then rewritten from its tap."""
        if mask is None and not self._tap_lines:
            return self._pipeline.evaluate(smbm)
        table = (smbm.id_vector() if mask is None else
                 BitVector.from_int(smbm.capacity, smbm.id_mask() & mask))
        inputs = [table] * self._params.n  # the pipeline copies each line
        for index in self._tap_lines:
            inputs[index] = BitVector.from_int(
                smbm.capacity, self._registers.get(index, 0))
        outputs = self._pipeline.evaluate(smbm, inputs)
        for index, line in self._tap_lines.items():
            self._registers[index] = outputs[line].value
        return outputs

    def _mux_output(
        self, outputs: list[BitVector], mux_select: bool | None
    ) -> BitVector:
        if self._mux is None:
            return outputs[self._output_line]
        primary = outputs[self._mux.primary_line]
        if mux_select is None:
            mux_select = not primary.is_empty()
        if mux_select:
            return primary
        return outputs[self._mux.fallback_line]

    def evaluate(
        self,
        smbm: SMBM,
        *,
        mux_select: bool | None = None,
    ) -> BitVector:
        """One packet's traversal: the final filtered table.

        ``mux_select`` overrides the conditional MUX with an externally
        computed predicate (the general ``if (predicate)`` conditional of
        section 4.2.3, where the RMT stage drives the select from packet
        metadata); ``None`` keeps the default primary-if-non-empty rule.
        """
        return self._mux_output(self._run(smbm), mux_select)

    def evaluate_restricted(
        self,
        smbm: SMBM,
        mask: int,
        *,
        mux_select: bool | None = None,
    ) -> BitVector:
        """One packet's traversal with every table line restricted to
        ``table ∩ mask`` — the scalar reference semantics of a batch row
        carrying a candidate-set mask (``META_FILTER_INPUT``).  A feedback
        line is not a table line: it carries its register, unmasked.
        """
        return self._mux_output(self._run(smbm, mask), mux_select)

    def select(
        self,
        smbm: SMBM,
        *,
        mux_select: bool | None = None,
    ) -> int | None:
        """Evaluate and return the single selected resource id, if exactly one."""
        out = self.evaluate(smbm, mux_select=mux_select)
        if out.popcount() != 1:
            return None
        return out.first_set()

    def describe(self) -> str:
        lines = [f"policy {self._policy.name!r} on n={self._params.n}, "
                 f"k={self._params.k}, f={self._params.f}, "
                 f"K-chain={self._params.chain_length}"]
        lines.append(self._config.describe())
        if self._mux is not None:
            lines.append(
                f"RMT mux: O{self._mux.primary_line} if non-empty "
                f"else O{self._mux.fallback_line}"
            )
        else:
            lines.append(f"output line: O{self._output_line}")
        return "\n".join(lines)

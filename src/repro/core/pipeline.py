"""The programmable serial chain pipeline (section 5.3.2).

The pipeline has ``k`` stages.  Each stage is an ``nf x n`` crossbar (modelled
functionally by :class:`~repro.core.benes.Crossbar`, realisable as a Benes
network — see :mod:`repro.core.benes`) feeding ``n/2`` Cells.  Stage 1's
crossbar selects from the ``n`` original pipeline inputs; stage ``i``'s
crossbar selects from the ``n`` output lines of stage ``i-1``, each of which
may fan out to at most ``f`` crossbar ports.  The outputs of stage ``k`` are
the pipeline outputs.

All crossbar wirings and unit opcodes are fixed at compile time (by
:class:`~repro.core.compiler.PolicyCompiler`); at runtime the pipeline maps
packets' input tables to output tables at one packet per clock, with a
deterministic latency of ``k * (chain_length * 2 + 1)`` cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro import obs
from repro.core.benes import Crossbar
from repro.core.bitvector import BitVector
from repro.core.cell import Cell, CellConfig, cell_latency_cycles
from repro.core.clocked import PipelineLatch
from repro.core.operators import BinaryOp, UnaryOp
from repro.core.smbm import SMBM
from repro.errors import ConfigurationError

__all__ = [
    "PipelineParams",
    "StageConfig",
    "PipelineConfig",
    "FilterPipeline",
    "ClockedFilterPipeline",
    "units_read",
]


@dataclass(frozen=True)
class PipelineParams:
    """Physical dimensions of a filter pipeline (section 6 design parameters).

    ``n``: input/output lines per stage (default 4);
    ``k``: number of stages (default 4);
    ``f``: output fan-out (default 2);
    ``chain_length``: physical length of every K-UFPU (default 4).
    Defaults are the paper's defaults.
    """

    n: int = 4
    k: int = 4
    f: int = 2
    chain_length: int = 4

    def __post_init__(self) -> None:
        if self.n < 2 or self.n % 2:
            raise ConfigurationError(f"n must be even and >= 2, got {self.n}")
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if self.f < 1:
            raise ConfigurationError(f"f must be >= 1, got {self.f}")
        if self.chain_length < 1:
            raise ConfigurationError(
                f"chain_length must be >= 1, got {self.chain_length}"
            )

    @property
    def cells_per_stage(self) -> int:
        return self.n // 2

    @property
    def latency_cycles(self) -> int:
        """Deterministic end-to-end latency in clock cycles."""
        return self.k * cell_latency_cycles(self.chain_length)


@dataclass
class StageConfig:
    """One stage: the crossbar wiring plus a CellConfig per Cell.

    ``wiring`` maps each Cell input port (0..n-1; Cell ``c`` owns ports
    ``2c`` and ``2c+1``) to the source line (0..n-1) of the previous stage
    (or of the pipeline inputs, for stage 1).  Ports left unwired receive an
    empty table.
    """

    wiring: dict[int, int] = field(default_factory=dict)
    cells: list[CellConfig] = field(default_factory=list)


@dataclass
class PipelineConfig:
    """Full compile-time configuration: one StageConfig per stage."""

    stages: list[StageConfig]

    def is_stateless(self) -> bool:
        """True when no programmed unit keeps state across packets.

        A stateless configuration's output is a pure function of the SMBM
        contents (and the input tables), which is what makes table-version
        memoization sound.
        """
        return not any(
            cell.kufpu1.opcode.is_stateful or cell.kufpu2.opcode.is_stateful
            for stage in self.stages
            for cell in stage.cells
        )

    def describe(self) -> str:
        lines = []
        for s, stage in enumerate(self.stages, start=1):
            lines.append(f"stage {s}: wiring={stage.wiring}")
            for c, cell in enumerate(stage.cells):
                lines.append(f"  cell {c}: {cell.describe()}")
        return "\n".join(lines)


#: One active Cell's observed port I/O: ``(in1, in2, out1, out2)``.
CellProbe = tuple[BitVector, BitVector, BitVector, BitVector]


@dataclass(frozen=True)
class _CellPlan:
    """Pruned-evaluation verdict for one physical Cell.

    ``live`` — at least one of the Cell's output lines can reach a live
    pipeline output; dead Cells are skipped entirely (their lines carry an
    empty table placeholder nobody reads).
    ``bypass`` — the Cell is a pure straight-through wire (both K-UFPUs
    no-op, both BFPUs the identity muxes, no input swap), so its outputs are
    copies of its input ports and the unit machinery can be skipped.
    """

    live: bool
    bypass: bool


def units_read(config: PipelineConfig, live: set[int]) -> list[list[set[int]]]:
    """The one backward liveness pass, from the ``live`` pipeline output
    lines: per stage (front to back) and Cell, the K-UFPU sides (0, 1) its
    live output lines read — empty for a Cell no live line can be reached
    from.

    A live BFPU output reads both sides, a passthrough mux only its
    ``choice``; a side that is read keeps alive the source line wired to
    the Cell input port feeding it (through the input 2x2 crossbar).  The
    pruned evaluation plan and the verifier's TH001/TH010 lints are both
    read off this table.
    """
    rows: list[list[set[int]]] = []
    for stage in reversed(config.stages):
        row: list[set[int]] = []
        needed_sources: set[int] = set()
        for c, cfg in enumerate(stage.cells):
            read: set[int] = set()
            for line, bcfg in ((2 * c, cfg.bfpu1), (2 * c + 1, cfg.bfpu2)):
                if line not in live:
                    continue
                if bcfg.opcode is BinaryOp.NO_OP:
                    read.add(bcfg.choice)
                else:
                    read.update((0, 1))
            row.append(read)
            for unit in read:
                port = 2 * c + (unit ^ cfg.input_swap)
                if port in stage.wiring:
                    needed_sources.add(stage.wiring[port])
        rows.append(row)
        live = needed_sources
    rows.reverse()
    return rows


class FilterPipeline:
    """A configured, runnable serial chain pipeline.

    ``live_outputs`` (optional) names the pipeline output lines the caller
    actually consumes; the constructor then derives a pruned evaluation
    plan — a backward liveness pass over the stage wirings — that skips
    NO_OP bypass Cells, unwired ports, and Cells whose outputs cannot reach
    a live line.  With the default ``None`` every output is treated as
    live (safe for direct use), which still enables the bypass shortcut and
    interior-dead-line pruning.
    """

    def __init__(self, params: PipelineParams, config: PipelineConfig,
                 *, lfsr_seed: int = 1,
                 live_outputs: Iterable[int] | None = None):
        if len(config.stages) != params.k:
            raise ConfigurationError(
                f"config has {len(config.stages)} stages, pipeline has k={params.k}"
            )
        self._params = params
        self._crossbars: list[Crossbar] = []
        self._cells: list[list[Cell]] = []
        seed = lfsr_seed
        for s, stage in enumerate(config.stages):
            if len(stage.cells) != params.cells_per_stage:
                raise ConfigurationError(
                    f"stage {s + 1} has {len(stage.cells)} cell configs, "
                    f"need {params.cells_per_stage}"
                )
            # Crossbar validation enforces the fan-out bound f per source line.
            self._crossbars.append(
                Crossbar(params.n, params.n, params.f, stage.wiring)
            )
            row: list[Cell] = []
            for c, cell_cfg in enumerate(stage.cells):
                row.append(
                    Cell(params.chain_length, cell_cfg, lfsr_seed=seed,
                         position=(s + 1, c))
                )
                seed += 2 * params.chain_length + 1
            self._cells.append(row)
        self._config = config
        self._plan = self._build_plan(config, live_outputs)
        # Observability.  The evaluation plan is fixed at construction, so
        # per-cell activation/skip totals are exactly (packets evaluated) x
        # (static plan verdicts): the hot loop only bumps one int, and a
        # weakly-held collect hook derives the per-cell series on demand.
        self._packets_evaluated = 0
        if obs.get_registry().enabled:
            obs.get_registry().add_hook(self._obs_collect)

    def _obs_collect(self):
        """Collect hook: per-cell activation/bypass/skip counters."""
        n_packets = self._packets_evaluated
        yield obs.Sample("pipeline_packets_total", n_packets,
                         help="packets evaluated by filter pipelines")
        for s, row in enumerate(self._plan, start=1):
            for c, plan in enumerate(row):
                labels = (("cell", str(c)), ("stage", str(s)))
                if not plan.live:
                    name = "pipeline_cell_skips_total"
                elif plan.bypass:
                    name = "pipeline_cell_bypasses_total"
                else:
                    name = "pipeline_cell_activations_total"
                yield obs.Sample(
                    name, n_packets, labels=labels,
                    help="per-cell packet traversals by plan verdict "
                         "(activated / bypassed wire / pruned skip)",
                )

    def _build_plan(
        self, config: PipelineConfig, live_outputs: Iterable[int] | None
    ) -> list[list[_CellPlan]]:
        """Which Cells matter (:func:`units_read`), which are pure wires."""
        n = self._params.n
        if live_outputs is None:
            live = set(range(n))
        else:
            live = {line for line in live_outputs}
            for line in live:
                if not 0 <= line < n:
                    raise ConfigurationError(
                        f"live output line {line} out of range [0, {n})"
                    )
        plans: list[list[_CellPlan]] = []
        for stage, row in zip(config.stages, units_read(config, live)):
            row_plans: list[_CellPlan] = []
            for cell_cfg, read in zip(stage.cells, row):
                reachable = bool(read)
                bypass = (
                    reachable
                    and not cell_cfg.input_swap
                    and cell_cfg.kufpu1.opcode is UnaryOp.NO_OP
                    and cell_cfg.kufpu2.opcode is UnaryOp.NO_OP
                    and cell_cfg.bfpu1.opcode is BinaryOp.NO_OP
                    and cell_cfg.bfpu1.choice == 0
                    and cell_cfg.bfpu2.opcode is BinaryOp.NO_OP
                    and cell_cfg.bfpu2.choice == 1
                )
                row_plans.append(_CellPlan(live=reachable, bypass=bypass))
            plans.append(row_plans)
        return plans

    @property
    def params(self) -> PipelineParams:
        return self._params

    @property
    def config(self) -> PipelineConfig:
        return self._config

    @property
    def latency_cycles(self) -> int:
        return self._params.latency_cycles

    def cell_at(self, stage: int, index: int) -> Cell:
        """The physical Cell at 1-based ``stage``, 0-based ``index``."""
        if not 1 <= stage <= self._params.k:
            raise ConfigurationError(
                f"stage {stage} out of range [1, {self._params.k}]"
            )
        if not 0 <= index < self._params.cells_per_stage:
            raise ConfigurationError(
                f"cell index {index} out of range "
                f"[0, {self._params.cells_per_stage})"
            )
        return self._cells[stage - 1][index]

    def active_cells(self) -> list[tuple[int, int]]:
        """(stage, index) of Cells the evaluation plan actually runs.

        Live non-bypass Cells are the ones whose units touch packets — the
        set a fault injector targets to guarantee an observable effect.
        """
        return [
            (s, c)
            for s, row in enumerate(self._plan, start=1)
            for c, plan in enumerate(row)
            if plan.live and not plan.bypass
        ]

    def reset_state(self) -> None:
        """Clear all stateful operator registers (round-robin positions)."""
        for row in self._cells:
            for cell in row:
                cell.reset_state()

    def evaluate(
        self,
        smbm: SMBM,
        inputs: list[BitVector] | None = None,
        *,
        probes: "dict[tuple[int, int], CellProbe] | None" = None,
    ) -> list[BitVector]:
        """One packet's traversal: n input tables in, n output tables out.

        When ``inputs`` is omitted every input line carries the full
        resource table (the common case: the pipeline input *is* the SMBM,
        Figure 14).  ``probes`` is the diagnostic sink of
        :meth:`evaluate_probed`; a pass that fills it is not counted in the
        packet totals.
        """
        n = self._params.n
        width = smbm.capacity
        if inputs is None:
            full = smbm.id_vector()
            lines = [full.copy() for _ in range(n)]
        else:
            if len(inputs) != n:
                raise ConfigurationError(
                    f"expected {n} input tables, got {len(inputs)}"
                )
            for vec in inputs:
                if vec.width != width:
                    raise ConfigurationError(
                        f"input width {vec.width} != SMBM capacity {width}"
                    )
            lines = [vec.copy() for vec in inputs]

        if probes is None:
            self._packets_evaluated += 1
        empty = BitVector.zeros(width)
        for s, (crossbar, row, plan_row) in enumerate(
            zip(self._crossbars, self._cells, self._plan), start=1
        ):
            ports = crossbar.apply(lines, idle=empty)
            next_lines: list[BitVector] = []
            for c, cell in enumerate(row):
                plan = plan_row[c]
                if not plan.live:
                    # Dead Cell: no live output is reachable from its lines,
                    # so skip the units and park empty placeholders.
                    next_lines.extend((empty, empty))
                elif plan.bypass:
                    # Pure wire: outputs are copies of the input ports.
                    next_lines.extend(
                        (ports[2 * c].copy(), ports[2 * c + 1].copy())
                    )
                else:
                    i1, i2 = ports[2 * c], ports[2 * c + 1]
                    o1, o2 = cell.evaluate(i1, i2, smbm)
                    if probes is not None:
                        probes[(s, c)] = (i1.copy(), i2.copy(), o1, o2)
                    next_lines.extend((o1, o2))
            lines = next_lines
        return lines

    def evaluate_probed(
        self, smbm: SMBM, inputs: list[BitVector] | None = None
    ) -> "dict[tuple[int, int], CellProbe]":
        """Diagnostic traversal capturing every active Cell's port I/O.

        Returns ``{(stage, index): (in1, in2, out1, out2)}`` for the live
        non-bypass Cells — the observation a built-in self-test needs to
        compare each physical Cell against a golden model *on the inputs it
        actually saw* (so a corrupted upstream Cell does not implicate the
        healthy Cells downstream of it).
        """
        probes: dict[tuple[int, int], CellProbe] = {}
        self.evaluate(smbm, inputs, probes=probes)
        return probes


class ClockedFilterPipeline:
    """Cycle-accurate wrapper: one packet enters per cycle, its outputs
    emerge exactly ``params.latency_cycles`` ticks later.

    The design-goal test bench of section 5: fully pipelined (a new packet
    is accepted every clock), with a small *deterministic* latency.  Results
    are computed against the SMBM state visible at issue time, matching
    hardware where the first stage latches its operands on entry.
    """

    def __init__(self, params: PipelineParams, config: PipelineConfig,
                 *, lfsr_seed: int = 1,
                 live_outputs: Iterable[int] | None = None):
        self._inner = FilterPipeline(
            params, config, lfsr_seed=lfsr_seed, live_outputs=live_outputs,
        )
        self._latch: PipelineLatch[list[BitVector]] = PipelineLatch(
            params.latency_cycles
        )
        self._cycle = 0

    @property
    def params(self) -> PipelineParams:
        return self._inner.params

    @property
    def cycle(self) -> int:
        return self._cycle

    @property
    def latency_cycles(self) -> int:
        return self._inner.latency_cycles

    def issue(self, smbm: SMBM, inputs: list[BitVector] | None = None) -> None:
        """Present one packet's tables at the pipeline input this cycle."""
        self._latch.issue(self._inner.evaluate(smbm, inputs))

    def tick(self) -> list[BitVector] | None:
        """Clock edge; returns the output tables retiring this cycle."""
        out = self._latch.tick()
        self._cycle += 1
        return out

    def occupancy(self) -> int:
        """Packets currently in flight inside the pipeline."""
        return self._latch.occupancy()

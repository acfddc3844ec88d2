"""Static plan verification: reject bad plans before they touch a pipeline.

:class:`PlanVerifier` checks a policy and/or its compiled plan without
executing a single cycle:

* **policy checks** (AST level) — operator/schema compatibility (TH002),
  operand width against the stored metric word (TH003), parallel-chain
  feasibility (TH004), input-index range (TH006) — all node-local; what a
  policy *means* (contradictions included) is the symbolic pass's;
* **plan checks** (emitted :class:`~repro.core.pipeline.PipelineConfig`) —
  wiring ranges (TH006), crossbar fan-out legality (TH005), Benes-network
  routability of every stage's wiring (TH007), and the liveness lints: the
  backward reachability pass behind the pipeline's pruned evaluation plan
  (:func:`~repro.core.pipeline.units_read`) flags programmed units in
  unreachable Cells (TH001) and unit outputs the BFPU muxing drops
  (TH010);
* **timing closure** — the analytical clock model of
  :mod:`repro.core.area` must meet the target clock for the SMBM size and
  pipeline dimensions in use (TH008).

The verifier is pure analysis: it never mutates its inputs and builds no
hardware models beyond routing each stage's Benes network (offline, as the
paper's compile flow does).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.findings import Report
from repro.core import area
from repro.core.benes import BenesNetwork, Crossbar
from repro.core.operators import BinaryOp, UnaryOp
from repro.core.pipeline import PipelineConfig, PipelineParams, units_read
from repro.core.policy import (
    Policy,
    TableRef,
    Unary,
    preorder_paths,
    stateless_blockers,
)
from repro.core.smbm import STORED_WORD_BITS
from repro.errors import CompilationError, ConfigurationError, RoutingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.compiler import CompiledPolicy

__all__ = ["TableSchema", "TenantSlice", "PlanVerifier",
           "verify_policy_compiles"]


@dataclass(frozen=True)
class TableSchema:
    """The SMBM dimensions a plan will run against: capacity N + metrics."""

    capacity: int
    metric_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError(
                f"capacity must be positive, got {self.capacity}"
            )
        object.__setattr__(self, "metric_names", tuple(self.metric_names))


@dataclass(frozen=True)
class TenantSlice:
    """One tenant's static share of a physical pipeline and its table.

    ``columns`` names the Cell columns the tenant owns: column ``c`` is the
    Cell at index ``c`` of *every* stage, together with the two lines it
    drives (``2c`` and ``2c+1``) at every inter-stage boundary and the
    matching pipeline input lines.  Vertical strips keep slicing closed
    under the feed-forward wiring rule: a plan confined to its columns can
    never read or write a neighbour's state, which is exactly what the
    TH014 check enforces.

    ``cell_quota`` bounds the physical Cells the plan may occupy (default:
    every Cell in the strip, i.e. ``k * len(columns)``); ``smbm_quota``
    bounds the tenant's resource-table rows.
    """

    columns: frozenset[int]
    smbm_quota: int
    cell_quota: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", frozenset(self.columns))
        if not self.columns:
            raise ConfigurationError("a tenant slice needs at least one column")
        if any(c < 0 for c in self.columns):
            raise ConfigurationError(
                f"negative cell column in slice: {sorted(self.columns)}"
            )
        if self.smbm_quota < 1:
            raise ConfigurationError(
                f"smbm_quota must be positive, got {self.smbm_quota}"
            )
        if self.cell_quota is not None and self.cell_quota < 1:
            raise ConfigurationError(
                f"cell_quota must be positive, got {self.cell_quota}"
            )

    @property
    def lines(self) -> frozenset[int]:
        """The lines this slice owns at every inter-stage boundary."""
        return frozenset(
            line for c in self.columns for line in (2 * c, 2 * c + 1)
        )

    def reserved_cells(self, params: PipelineParams) -> frozenset[tuple[int, int]]:
        """Every physical Cell *outside* this slice — the compiler's
        ``dead_cells`` argument that confines a plan to the strip."""
        return frozenset(
            (stage, c)
            for stage in range(1, params.k + 1)
            for c in range(params.cells_per_stage)
            if c not in self.columns
        )


class PlanVerifier:
    """Static checker for one pipeline geometry (and optionally one table).

    ``schema`` enables the SMBM-dependent checks (TH002 unknown metric,
    TH008 timing closure against the paper's 1 GHz switch clock,
    :data:`repro.core.area.TARGET_CLOCK_GHZ`); without it only geometry
    checks run.  ``benes_size`` overrides the per-stage Benes network size
    (the default :meth:`~repro.core.benes.BenesNetwork.for_crossbar` sizing
    always fits the compiler's own wirings — smaller networks model a
    floorplan with constrained crossbars).
    """

    def __init__(self, params: PipelineParams | None = None, *,
                 schema: TableSchema | None = None,
                 benes_size: int | None = None,
                 semantic: bool = True):
        self._params = params if params is not None else PipelineParams()
        self._schema = schema
        self._semantic = semantic
        self._benes = (
            BenesNetwork(benes_size) if benes_size is not None
            else BenesNetwork.for_crossbar(self._params.n, self._params.f)
        )

    @property
    def params(self) -> PipelineParams:
        return self._params

    @property
    def schema(self) -> TableSchema | None:
        return self._schema

    # -- policy (AST) checks ------------------------------------------------------

    def verify_policy(self, policy: Policy) -> Report:
        """AST-level, node-local checks: TH002, TH003, TH004, TH006.

        Every AST finding carries its root-to-node ``node_path`` (shared
        sub-DAGs keep their first pre-order path), so a diagnostic names
        the exact node, not just the policy.
        """
        report = Report(subject=f"policy {policy.name!r}")
        for node, path in preorder_paths(policy.root):
            if isinstance(node, Unary):
                self._check_unary(node, report, path)
            elif (isinstance(node, TableRef)
                    and node.input_index is not None
                    and not 0 <= node.input_index < self._params.n):
                report.add(
                    "TH006",
                    f"input index {node.input_index} out of range for a "
                    f"pipeline with n={self._params.n} inputs",
                    operator=node.describe(), node_path=path,
                )
        return report

    def _check_unary(self, node: Unary, report: Report,
                     path: tuple[int, ...]) -> None:
        config = node.config
        op = config.opcode.value
        if config.k > self._params.chain_length:
            report.add(
                "TH004",
                f"parallel chain K={config.k} exceeds the physical K-UFPU "
                f"chain length {self._params.chain_length}",
                operator=config.describe(), node_path=path,
            )
        if (config.attr is not None and self._schema is not None
                and config.attr not in self._schema.metric_names):
            report.add(
                "TH002",
                f"{op} reads metric {config.attr!r} absent from the SMBM "
                f"schema {self._schema.metric_names}",
                operator=config.describe(), node_path=path,
            )
        if config.opcode is UnaryOp.PREDICATE:
            assert config.val is not None
            if not 0 <= config.val < (1 << STORED_WORD_BITS):
                report.add(
                    "TH003",
                    f"predicate operand {config.val} does not fit the "
                    f"{STORED_WORD_BITS}-bit stored metric word",
                    operator=config.describe(), node_path=path,
                )

    # -- plan (emitted config) checks ----------------------------------------------

    def verify_config(self, config: PipelineConfig,
                      live_outputs: Iterable[int] | None = None) -> Report:
        """Plan-level checks over an emitted configuration.

        ``live_outputs`` names the output lines the caller reads (default:
        all of them) — the anchor of the TH001/TH010 liveness lints, read
        off the same backward reachability pass as the pipeline's pruned
        evaluation plan.
        """
        report = Report(subject="pipeline config")
        params = self._params
        if len(config.stages) != params.k:
            report.add(
                "TH006",
                f"config has {len(config.stages)} stages, the pipeline has "
                f"k={params.k}",
            )
            return report
        for s, stage in enumerate(config.stages, start=1):
            if len(stage.cells) != params.cells_per_stage:
                report.add(
                    "TH006",
                    f"{len(stage.cells)} cell configs, need "
                    f"{params.cells_per_stage}",
                    stage=s,
                )
                continue
            self._check_stage_wiring(s, stage.wiring, report)
        if report.errors:
            return report  # liveness over malformed wiring is meaningless
        self._check_liveness(config, live_outputs, report)
        return report

    def _check_stage_wiring(self, s: int, wiring: dict[int, int],
                            report: Report) -> None:
        params = self._params
        n = params.n
        taps: dict[int, int] = {}
        in_range = True
        for port, line in wiring.items():
            if not 0 <= port < n:
                report.add(
                    "TH006", f"Cell input port {port} out of range [0, {n})",
                    stage=s, cell=port // 2 if port >= 0 else None,
                )
                in_range = False
            if not 0 <= line < n:
                report.add(
                    "TH006", f"source line {line} out of range [0, {n})",
                    stage=s,
                )
                in_range = False
                continue
            taps[line] = taps.get(line, 0) + 1
        for line, count in sorted(taps.items()):
            if count > params.f:
                report.add(
                    "TH005",
                    f"source line {line} feeds {count} ports, exceeding the "
                    f"fan-out bound f={params.f}",
                    stage=s,
                )
        if not in_range or any(c > params.f for c in taps.values()):
            return  # the Crossbar model would reject it for the same reason
        crossbar = Crossbar(n, n, params.f, wiring)
        try:
            self._benes.route_crossbar(crossbar)
        except RoutingError as exc:
            report.add(
                "TH007",
                f"wiring not routable on the size-{self._benes.size} Benes "
                f"network: {exc}",
                stage=s,
            )

    def _check_liveness(self, config: PipelineConfig,
                        live_outputs: Iterable[int] | None,
                        report: Report) -> None:
        """TH001 dead programmed Cells, TH010 programmed units whose
        output the BFPU muxing drops."""
        live = (set(range(self._params.n)) if live_outputs is None
                else set(live_outputs))
        pending: list[tuple[int, int, tuple[str, str, str]]] = []
        for s, (stage, row) in enumerate(
            zip(config.stages, units_read(config, live)), start=1
        ):
            for c, (cfg, read) in enumerate(zip(stage.cells, row)):
                for u, kcfg in enumerate((cfg.kufpu1, cfg.kufpu2)):
                    if kcfg.opcode is UnaryOp.NO_OP or u in read:
                        continue
                    if read:
                        rule, message = "TH010", (
                            f"unit {u + 1} is programmed "
                            f"({kcfg.describe()}) but every live BFPU "
                            "output drops it"
                        )
                    else:
                        rule, message = "TH001", (
                            f"programmed unit {kcfg.describe()} sits in a "
                            "Cell unreachable from any live pipeline output"
                        )
                    pending.append((s, c, (rule, message, kcfg.describe())))
        # Reported by (stage, Cell, message), not by unit index.
        for s, c, (rule, message, op) in sorted(pending):
            report.add(rule, message, stage=s, cell=c, operator=op)

    # -- timing closure -------------------------------------------------------------

    def verify_timing(self) -> Report:
        """TH008: the analytical critical path must meet the target clock.

        The plan's clock is the slower of the SMBM search path (grows with
        table depth, :func:`repro.core.area.smbm_clock_ghz`) and the Cell
        pipeline clock (:func:`repro.core.area.pipeline_clock_ghz`).
        Requires a schema — without the table size the model has no N.
        """
        report = Report(subject="timing closure")
        if self._schema is None:
            return report
        n_rows = self._schema.capacity
        m = max(1, len(self._schema.metric_names))
        smbm_clock = area.smbm_clock_ghz(n_rows, m)
        pipe_clock = area.pipeline_clock_ghz(
            self._params.n, self._params.k, self._params.f,
            self._params.chain_length, n_rows,
        )
        achieved = min(smbm_clock, pipe_clock)
        if achieved < area.TARGET_CLOCK_GHZ:
            limiter = "SMBM search" if smbm_clock <= pipe_clock else "Cell"
            report.add(
                "TH008",
                f"critical path ({limiter}) closes at {achieved:.3f} GHz "
                f"for N={n_rows}, m={m}, below the "
                f"{area.TARGET_CLOCK_GHZ:.3f} GHz target clock",
            )
        return report

    # -- tenant slicing (TH013 / TH014) -----------------------------------------------

    def verify_slice(self, compiled: "CompiledPolicy",
                     tenant_slice: TenantSlice) -> Report:
        """TH013/TH014: does this plan stay inside one tenant's slice?

        A Cell is *occupied* when any of its K-UFPU sides is programmed,
        its BFPU computes (non-passthrough), or either of its crossbar
        input ports is wired — a pure passthrough Cell still burns the
        physical resource it sits in.  TH014 fires for occupation outside
        ``tenant_slice.columns`` and for any wiring port sourcing a line
        another column drives.  TH013 fires when occupation exceeds
        ``cell_quota`` or the verifier's table schema exceeds
        ``smbm_quota``.  Together with compiling against
        :meth:`TenantSlice.reserved_cells`, a clean report is the static
        isolation guarantee: the plan provably cannot observe or perturb a
        neighbouring tenant's Cells, lines, or table rows.
        """
        report = Report(
            subject=f"tenant slice of {compiled.policy.name!r}"
        )
        columns = tenant_slice.columns
        owned_lines = tenant_slice.lines
        occupied: set[tuple[int, int]] = set()
        for s, stage in enumerate(compiled.config.stages, start=1):
            for c, cfg in enumerate(stage.cells):
                used = (
                    cfg.kufpu1.opcode is not UnaryOp.NO_OP
                    or cfg.kufpu2.opcode is not UnaryOp.NO_OP
                    or cfg.bfpu1.opcode is not BinaryOp.NO_OP
                    or cfg.bfpu2.opcode is not BinaryOp.NO_OP
                    or (2 * c) in stage.wiring
                    or (2 * c + 1) in stage.wiring
                )
                if not used:
                    continue
                occupied.add((s, c))
                if c not in columns:
                    report.add(
                        "TH014",
                        f"plan occupies Cell column {c}, outside the slice "
                        f"columns {sorted(columns)}",
                        stage=s, cell=c,
                    )
                for port in (2 * c, 2 * c + 1):
                    line = stage.wiring.get(port)
                    if line is not None and line not in owned_lines:
                        report.add(
                            "TH014",
                            f"Cell input port {port} taps line {line}, "
                            f"driven by column {line // 2} of another "
                            "tenant's slice",
                            stage=s, cell=c,
                        )
        quota = tenant_slice.cell_quota
        if quota is None:
            quota = self._params.k * len(columns)
        if len(occupied) > quota:
            report.add(
                "TH013",
                f"plan occupies {len(occupied)} physical Cells, exceeding "
                f"the tenant's quota of {quota}",
            )
        if (self._schema is not None
                and self._schema.capacity > tenant_slice.smbm_quota):
            report.add(
                "TH013",
                f"table capacity {self._schema.capacity} exceeds the "
                f"tenant's SMBM row quota {tenant_slice.smbm_quota}",
            )
        return report

    # -- codegen eligibility (TH012) --------------------------------------------------

    def verify_codegen(self, compiled: "CompiledPolicy") -> Report:
        """TH012: may this plan be specialized to a flat closure?

        The codegen bargain is only sound when a plan's output is a pure
        function of the table contents: every blocker reported here names
        a way the pipeline traversal carries information a per-version
        kernel cannot — the policy's own
        :func:`~repro.core.policy.stateless_blockers` (cross-packet unit
        state, feedback registers; what
        :class:`~repro.engine.codegen.PlanCodegen` refuses).
        A clean report means the generated kernel is semantically
        interchangeable with the interpreted plan at every table version.
        """
        report = Report(
            subject=f"codegen eligibility of {compiled.policy.name!r}"
        )
        for blocker in stateless_blockers(compiled.policy):
            report.add("TH012", blocker)
        return report

    # -- the full pass ---------------------------------------------------------------

    def verify_compiled(self, compiled: "CompiledPolicy") -> Report:
        """Everything at once over a compiled plan.

        The liveness anchor is exactly the line set the compiled policy
        reads back: its output line, the MUX lines and every feedback tap.
        The semantic pass (TH017–TH019, :mod:`repro.analysis.symbolic`)
        rides along so ``compile(verify=True)`` surfaces reachability and
        shadowing lints as warnings by default.
        """
        from repro.analysis.symbolic import analyze_policy  # late: layering

        live = {compiled.output_line} | set(compiled.tap_lines.values())
        if compiled.mux is not None:
            live |= {compiled.mux.primary_line, compiled.mux.fallback_line}
        report = Report(subject=f"compiled policy {compiled.policy.name!r}")
        report.extend(self.verify_policy(compiled.policy))
        report.extend(self.verify_config(compiled.config, live_outputs=live))
        report.extend(self.verify_timing())
        if self._semantic:
            report.extend(analyze_policy(compiled.policy,
                                         schema=self._schema).report)
        return report


def verify_policy_compiles(
    policy: Policy,
    params: PipelineParams | None = None,
    *,
    schema: TableSchema | None = None,
    semantic: bool = True,
) -> Report:
    """Trial-compile ``policy`` and verify the result, never raising.

    A :class:`~repro.errors.CompilationError` from the trial compile is
    converted into a finding under its own rule id (TH009 when the raise
    site attached none), so callers — the lint CLI, the property suite —
    always get a :class:`Report` whether the policy fails statically or
    structurally.
    """
    from repro.core.compiler import PolicyCompiler  # late: import cycle

    verifier = PlanVerifier(params, schema=schema, semantic=semantic)
    try:
        compiled = PolicyCompiler(params).compile(policy, verify=False)
    except CompilationError as exc:
        from repro.analysis.symbolic import analyze_policy  # late: layering

        report = Report(subject=f"policy {policy.name!r}")
        report.extend(verifier.verify_policy(policy))
        if semantic:
            report.extend(analyze_policy(policy, schema=schema).report)
        rule = exc.rule or "TH009"
        if not any(f.rule == rule for f in report.findings):
            report.add(rule, str(exc.args[0] if exc.args else exc),
                       stage=exc.stage, cell=exc.cell, operator=exc.operator)
        return report
    return verifier.verify_compiled(compiled)

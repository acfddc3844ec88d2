"""The chained multi-dimensional filter module (Figure 8).

Bundles the SMBM resource table with a compiled filter policy.  The module
is triggered per packet: the packet passes through unmodified while the
programmed policy is applied to the resource table, and the output — the
filtered set of resource ids — is written to the packet's metadata for the
RMT stages that follow (section 3).

Packets that do not want filtering simply bypass the module
(:meth:`FilterModule.evaluate_batch` leaves rows without the trigger flag
alone).

The paper maps the policy onto Cells once, at compile time; a fault moves
the *placement*, not the policy.  The module keeps that split with two
owners.  :class:`FilterModule` is the serving core: what the policy alone
determines — its semantic analysis, the naive reference, the kernel and
the unit state — built when the policy changes, and the version memo, the
doors and the counters.  Its :attr:`~FilterModule.cells`, a
:class:`~repro.switch.cell_shadow.CellShadow`, is the hardware model: the
placement, the injected faults, fail-around, the self-test and the
sanitizer's Cell compare; ``self_healing`` and ``sanitize`` are its
settings, and the tenant slice its bounds.

Every policy has one software lowering, its
:class:`~repro.engine.codegen.PlanCodegen` kernel, for memo misses, masked
rows, batch columns and the rows of a stateful policy alike.  A stateful
policy's unit state — LFSR registers, round-robin pointers and weights,
feedback registers — lives on the policy clock, in the one
:class:`~repro.core.policy.UnitState` the module owns and lends the
kernel; it is seeded by the policy alone, so no placement, co-tenant,
recompile or heal moves it.  One rule decides when a row walks the Cells:
while an injected fault sits on the placement, every row the memo cannot
answer does, from any door and masked or not; under ``sanitize`` the Cells
check every kernel row.  Either way they are loaded from the owner's units
before the walk.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Mapping, Sequence

from repro import obs
from repro.analysis.symbolic import SemanticAnalysis, analyze_policy
from repro.analysis.verifier import TableSchema
from repro.core.bitvector import BitVector
from repro.core.compiler import CompiledPolicy
from repro.core.pipeline import PipelineParams
from repro.core.operators import UnaryOp
from repro.core.policy import (Policy, PolicyInterpreter, Unary, UnitState,
                               postorder, stateless_blockers)
from repro.core.smbm import SMBM
from repro.engine.batch import (  # re-exported: the metadata protocol is
    META_FILTER_EPOCH,            # defined at the engine layer so the
    META_FILTER_INPUT,            # batch buffer needs no switch imports
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    META_FILTER_SELECTED,
    PacketBatch,
)
from repro.engine.codegen import PlanCodegen
from repro.errors import ConfigurationError, IntegrityError
from repro.rmt.packet import Packet
from repro.switch.cell_shadow import CellShadow

__all__ = [
    "FilterModule",
    "PacketBatch",
    "selected_id",
    "META_FILTER_REQUEST",
    "META_FILTER_OUTPUT",
    "META_FILTER_SELECTED",
    "META_FILTER_INPUT",
    "META_FILTER_EPOCH",
]


class FilterModule:
    """One filter module instance: resource table + programmed policy.

    For **stateless** policies (no round-robin/random unit and no feedback
    register: :func:`~repro.core.policy.stateless_blockers` is empty) the
    module memoizes the evaluation result keyed on the SMBM's write-version
    counter: back-to-back packets against an unchanged table cost a single
    comparison — the software analogue of the hardware answering the same
    table every clock cycle.  Any committed write bumps the version and so
    invalidates the cache.  Stateful policies are never memoized (their
    outputs advance per packet by design): each row is one step of their
    units on the kernel.

    Every piece of serving state is rebuilt on exactly one of three clocks:

    * the **policy clock** (construction, :meth:`hot_swap`) —
      :meth:`_program` installs what is a function of the policy alone:
      the :attr:`analysis` (computed once per policy; the hot-swap gate,
      the sanitizer's containment check and admission's TH021 check all
      read it), the naive reference, the kernel, the unit state the
      kernel steps and the Cells load and store back
      (:meth:`export_units` / :meth:`restore_units`), the
      policy-labelled instruments, and which predicate sets the SMBM
      keeps (the policy's; every other is dropped);
    * the **placement clock** (construction, :meth:`hot_swap`, every
      fail-around recompile) — :attr:`cells` maps the policy onto the
      Cells the slice and the detected faults leave, re-arms the physical
      faults and installs the plan; nothing the policy clock owns is
      touched;
    * the **version clock** (every committed table write, and a restore) —
      the memo entry and the kernel's specialization.
    """

    def __init__(
        self,
        capacity: int,
        metric_names: Sequence[str],
        policy: Policy,
        params: PipelineParams | None = None,
        *,
        lfsr_seed: int = 1,
        self_healing: bool = False,
        sanitize: bool = False,
        tenant: str | None = None,
        reserved_cells: "Iterable[tuple[int, int]]" = (),
        input_lines: "Iterable[int] | None" = None,
    ):
        self._tenant = tenant
        self._smbm = SMBM(capacity, metric_names, sanitize=sanitize,
                          tenant=tenant)
        self._lfsr_seed = lfsr_seed
        tlabels = {} if tenant is None else {"tenant": tenant}
        # The schema is the table dimensions the static verifier checks
        # every placement against (width compatibility, timing closure).
        self._cells = CellShadow(
            params, TableSchema(capacity, tuple(metric_names)),
            lfsr_seed=lfsr_seed, reserved_cells=reserved_cells,
            input_lines=input_lines, self_healing=self_healing,
            sanitize=sanitize, on_move=self._reset_serving_caches,
            labels=tlabels,
        )
        # A hitless hot-swap bumps the epoch; the watermark is stamped on
        # every filter output (scalar and batched) so a packet stream
        # spanning a swap separates cleanly into old-plan/new-plan halves.
        self._plan_epoch = 0
        compiled = self._cells.place(policy)
        self._evaluations = self._cache_hits = self._cache_misses = 0
        # Batch-tier attribution: how many rows each serving path handled.
        # "broadcast" = uniform rows collapsed to one memoized evaluation,
        # "engine" = rows the kernel served in one call (masked rows of a
        # stateless policy, every row of a stateful one), "fallback" = the
        # row routine, row by row (those rows while the Cells take rows:
        # a fault is live, or sanitize).
        self._batches = self._batch_rows = self._batch_broadcast_rows = 0
        self._batch_engine_rows = self._batch_fallback_rows = 0
        if sanitize:
            # Memo-version coherence: a committed write bumps the table
            # version, so a memo entry keyed at (or past) the post-write
            # version means a stale result could be served as fresh.
            self._smbm.add_write_listener(self._sanitize_memo_listener)
        # Observability.  The memo-hit path runs in ~0.4us, so the hot
        # counters stay plain ints (above) and are turned into registry
        # samples only at collect time by a weakly-held hook — the enabled
        # and disabled paths execute identical per-packet code.  Only the
        # (much slower) miss path, which runs the whole pipeline, pays for a
        # timing capture, and only when a real registry is active.
        registry = obs.get_registry()
        self._obs_enabled = registry.enabled
        self._program(analyze_policy(policy))
        if self._obs_enabled:
            registry.add_hook(self._obs_collect)
        # Off the per-packet path, so created unconditionally: against the
        # null registry they are shared no-op singletons.
        self._obs_swaps = registry.counter(
            "filter_hot_swaps_total", {"policy": policy.name, **tlabels},
            help="hitless policy hot-swaps installed on this module",
        )
        self._obs_cache_resets = registry.counter(
            "serving_cache_resets_total", tlabels or None,
            help="serving-cache invalidations (memo, codegen kernel) on "
                 "install, hot-swap, fail-around, and table restore",
        )
        # Construction installs the plan through the same step every
        # later plan change does (and counts its cache reset).
        self._cells.install(compiled)

    def _program(self, analysis: SemanticAnalysis) -> None:
        """The policy clock: install ``analysis`` (emitting its findings)
        and build everything else that is a function of its policy alone,
        before the first assignment — among it the one
        :class:`PlanCodegen` (the row routine's lowering and the batch
        engine both) and the units it steps, freshly seeded."""
        policy = analysis.policy
        # The naive reference self_test() and sanitize_check() hold the
        # plan to: a walk of the policy DAG over the table's sorted lists,
        # sharing no compiler, Cell or MetricIndex with the plan it judges.
        reference = PolicyInterpreter(policy, lfsr_seed=self._lfsr_seed)
        kernel = PlanCodegen(policy)
        # The one owner of the unit and feedback registers: the kernel
        # steps them, the Cells load them and store them back.
        self._units = kernel.units = UnitState.seeded(policy,
                                                      self._lfsr_seed)
        self._policy = policy
        self._analysis = analysis
        self._reference = reference
        self._codegen = kernel
        self._memoize = not stateless_blockers(policy)
        self._smbm.keep_predicates(
            (node.config.attr, node.config.rel_op, node.config.val)
            for node in postorder(policy.root) if isinstance(node, Unary)
            and node.config.opcode is UnaryOp.PREDICATE)
        analysis.report.emit()
        if self._obs_enabled:
            # The policy label is part of the series identity, so a new
            # policy gets fresh hot-path series; the old one's stay
            # behind, frozen.
            registry = obs.get_registry()
            labels = self._plan_labels()
            self._obs_eval_ns = registry.histogram(
                "filter_eval_ns", labels,
                help="miss-path policy evaluation wall time (ns, pow2 "
                     "buckets)",
            )
            self._obs_cycles = registry.counter(
                "filter_eval_cycles_total", labels,
                help="modelled hardware cycles spent in miss-path "
                     "evaluations",
            )
            self._obs_batch_size = registry.histogram(
                "filter_batch_size", labels,
                help="requesting rows per evaluate_masks call (pow2 buckets)",
            )

    def _plan_labels(self) -> dict[str, str]:
        """Labels of the per-plan series: policy name, plus the tenant when
        this module is one slice of a shared pipeline."""
        labels = {"policy": self._policy.name}
        if self._tenant is not None:
            labels["tenant"] = self._tenant
        return labels

    def _obs_collect(self):
        """Collect hook: publish the per-packet int counters as samples."""
        labels = tuple(sorted(self._plan_labels().items()))
        yield obs.Sample("filter_evaluations_total", self._evaluations,
                         labels=labels, help="per-packet policy evaluations")
        yield obs.Sample("filter_memo_hits_total", self._cache_hits,
                         labels=labels,
                         help="evaluations served from the version memo")
        yield obs.Sample("filter_memo_misses_total", self._cache_misses,
                         labels=labels,
                         help="memoized evaluations that ran the pipeline")
        yield obs.Sample("filter_batches_total", self._batches,
                         labels=labels,
                         help="evaluate_masks calls")
        yield obs.Sample("filter_batch_rows_total", self._batch_rows,
                         labels=labels,
                         help="requesting rows seen by evaluate_masks")
        for path, rows in (("broadcast", self._batch_broadcast_rows),
                           ("engine", self._batch_engine_rows),
                           ("fallback", self._batch_fallback_rows)):
            yield obs.Sample(
                "filter_batch_path_rows_total", rows,
                labels=labels + (("path", path),),
                help="batch rows served, by serving path",
            )

    @property
    def smbm(self) -> SMBM:
        """The resource table (writable through add/delete/update)."""
        return self._smbm

    @property
    def tenant(self) -> str | None:
        """The owning tenant, or ``None`` for a dedicated (solo) module."""
        return self._tenant

    @property
    def plan_epoch(self) -> int:
        """Plan generation counter: 0 at construction, +1 per hot-swap."""
        return self._plan_epoch

    @property
    def compiled(self) -> CompiledPolicy:
        """The live placement (:attr:`cells`' compiled pipeline)."""
        return self._cells.compiled

    @property
    def cells(self) -> CellShadow:
        """The hardware shadow: placement, faults, fail-around, self-test
        and the sanitizer's Cell compare."""
        return self._cells

    @property
    def policy(self) -> Policy:
        """The currently programmed policy (the live one after a swap)."""
        return self._policy

    @property
    def analysis(self) -> SemanticAnalysis:
        """The live policy's semantic analysis, computed once when it was
        programmed: no placement change re-runs it."""
        return self._analysis

    def restore_table(
        self, state: "Mapping[str, object]", *, plan_epoch: int | None = None
    ) -> None:
        """Restore the resource table from an SMBM checkpoint state.

        Every serving cache is dropped *before* the restore lands: the
        restored version counter may be lower than (or collide with) the
        live one, so version-keyed reuse across a restore is unsound — the
        memo and the kernel's specialization both rebuild against the
        restored table.  ``plan_epoch`` optionally re-stamps the module's
        epoch watermark so a migrated tenant's outputs keep the epoch
        lineage of the source module; a negative one is refused before
        anything is touched.
        """
        if plan_epoch is not None and plan_epoch < 0:
            raise ConfigurationError(f"plan_epoch must be >= 0, got {plan_epoch}")
        self._reset_serving_caches()
        self._smbm.restore_state(state)
        if plan_epoch is not None:
            self._plan_epoch = int(plan_epoch)

    @property
    def codegen(self) -> PlanCodegen:
        """The policy's :class:`~repro.engine.codegen.PlanCodegen` kernel."""
        return self._codegen

    def export_units(self) -> "dict[str, list] | None":
        """The policy's unit and feedback registers
        (:meth:`UnitState.export <repro.core.policy.UnitState.export>`),
        or ``None`` when it has neither."""
        return None if self._memoize else self._units.export()

    def restore_units(self, state: "Mapping[str, object] | None") -> None:
        """Load what :meth:`export_units` returned for the same policy;
        ``None`` leaves the units as they are."""
        if state is not None:
            self._units.restore(state)

    @property
    def latency_cycles(self) -> int:
        """Deterministic processing latency added to a packet's pipeline
        traversal (the packet itself is unmodified and un-delayed relative
        to the pipeline: the module is fully pipelined)."""
        return self._cells.compiled.latency_cycles

    # -- resource table maintenance --------------------------------------------------

    def update_resource(self, resource_id: int, metrics: Mapping[str, int]) -> None:
        """Delete+add update, the composite write of section 5.1.2."""
        if resource_id in self._smbm:
            self._smbm.update(resource_id, metrics)
        else:
            self._smbm.add(resource_id, metrics)

    def remove_resource(self, resource_id: int) -> None:
        self._smbm.delete(resource_id)

    # -- per-packet processing --------------------------------------------------------

    def evaluate(self) -> BitVector:
        """Apply the programmed policy to the current table once (an
        unmasked :meth:`_serve`).  Callers receive an independent vector."""
        return BitVector.from_int(self._smbm.capacity, self._serve(None))

    def _serve(self, mask: int | None) -> int:
        """One packet's filter output as a raw id-mask: the only row
        routine.  ``mask`` is the packet's ``META_FILTER_INPUT`` candidate
        set (``None`` = the full table); every entry point —
        :meth:`evaluate`, :meth:`select`, each :meth:`evaluate_masks` row
        the batch engine does not take — lands here, so what a packet gets
        cannot depend on how it arrived.

        Unmasked rows of a stateless policy are served from the
        version-keyed memo when the table is unchanged since the last
        evaluation (a masked row's answer depends on its mask, so it always
        runs).  Exception-safe: the memo entry is dropped *before* the run
        and re-installed only on success, and only if the table version is
        unchanged after the run — a fault (or a concurrent table write from
        a fault handler) mid-evaluation can therefore never leave an entry
        keyed on a version the output does not match.
        """
        self._evaluations += 1
        if mask is not None or not self._memoize:
            return self._miss(mask)
        version = self._smbm.version
        if version == self._memo_version:
            self._cache_hits += 1
            return self._memo_output
        self._memo_version = None
        out = self._miss(None)
        if self._smbm.version == version:
            self._memo_version = version
            self._memo_output = out
        self._cache_misses += 1
        return out

    def _miss(self, mask: int | None) -> int:
        """A row the memo cannot answer: the one call into the Cell shadow
        (the kernel's answer, or the Cells' while they take rows), held to
        the plan's feasible region under ``sanitize``; with metrics enabled
        it attributes wall time and the deterministic hardware latency."""
        t0 = time.perf_counter_ns() if self._obs_enabled else 0
        out = self._cells.run(self._smbm, mask, self._codegen, self._units)
        if self._obs_enabled:
            self._obs_eval_ns.observe(time.perf_counter_ns() - t0)
            self._obs_cycles.inc(self._cells.compiled.latency_cycles)
        if self._cells.sanitize:
            self._check_semantic_containment(out)
        return out

    def _check_semantic_containment(self, output_bits: int) -> None:
        """Sanitizer half of the soundness contract: every selected row
        must lie inside the plan's feasible region.  A hit outside it
        means a region the analyzer proved unreachable (TH017/TH018)
        received traffic — the analysis would be unsound."""
        if not output_bits:
            return
        region = self._analysis.root_region
        bits = output_bits
        while bits:
            low = bits & -bits
            bits ^= low
            rid = low.bit_length() - 1
            if rid not in self._smbm:
                continue  # stale-bit checks belong to the oracle paths
            row = self._smbm.metrics_of(rid)
            if not region.contains(row):
                raise IntegrityError(
                    f"sanitizer: selected resource {rid} ({row}) lies "
                    f"outside the plan's feasible region "
                    f"{region.describe()} on policy "
                    f"{self._policy.name!r} — symbolic analysis unsound "
                    "or plan mis-evaluated",
                    component="filter_module",
                    resource=rid,
                )

    # -- runtime sanitizer -------------------------------------------------------------

    def _sanitize_memo_listener(self, kind: str, resource_id: int, row) -> None:
        """Commit-time check: no memo entry may survive a committed write."""
        if (self._memo_version is not None
                and self._memo_version >= self._smbm.version):
            raise IntegrityError(
                f"sanitizer: memo keyed at version {self._memo_version} "
                f"but a {kind} of resource {resource_id} just committed "
                f"version {self._smbm.version} — stale results would be "
                "served as fresh",
                component="filter_module",
                resource=resource_id,
            )

    def sanitize_check(self) -> BitVector:
        """On-demand oracle comparison: fast path vs the O(N) reference.

        Evaluates the compiled fast path and the naive
        :class:`~repro.core.policy.PolicyInterpreter` on the live table
        and raises :class:`~repro.errors.IntegrityError` on any mismatch.
        Returns the (agreed) output.  Only valid for stateless policies.
        """
        out = self._cells.check(self._smbm, self._reference)
        self._check_semantic_containment(out)
        return BitVector.from_int(self._smbm.capacity, out)

    def self_test(self) -> list[dict[str, object]]:
        """Built-in self-test against the naive reference, healing every
        fault it finds (:meth:`CellShadow.self_test
        <repro.switch.cell_shadow.CellShadow.self_test>`).  Only valid for
        stateless policies."""
        return self._cells.self_test(self._smbm, self._reference)

    def _reset_serving_caches(self) -> None:
        """Drop every serving cache derived from the plan or the table —
        the version-keyed memo and the kernel's specialization — wherever
        one could go stale: install (construction), hot-swap, fail-around
        recompile and checkpoint restore.  Counted once per reset on
        ``serving_cache_resets_total``."""
        # Single-entry memo: the SMBM version only moves forward, so older
        # results can never become valid again.
        self._memo_version: int | None = None
        self._memo_output = 0
        self._codegen.invalidate()
        self._obs_cache_resets.inc()

    def hot_swap(
        self,
        policy: Policy,
        *,
        gate: "Callable[[CompiledPolicy, SemanticAnalysis], None] | None" = None,
    ) -> int:
        """Hitlessly replace the programmed policy with ``policy``.

        Both the policy and the placement clock tick.  The replacement is
        compiled *beside* the live plan (under the same tenant slice and
        fault exclusions) and analysed once; ``gate`` (e.g. a tenant
        manager's semantic and slice checks) is handed the plan and that
        analysis.  A policy that does not fit, or a gate that refuses,
        raises with the live plan, epoch and outputs untouched.  Then the
        same analysis is installed and the policy's kernel and units are
        built, and the flip is atomic on an SMBM version boundary, with every
        version-keyed cache dropped in the same step.
        No packet ever sees a mix: outputs stamped with the old
        :attr:`plan_epoch` came entirely from the old plan, outputs with
        the new epoch entirely from the new one.

        Returns the new plan epoch.
        """
        compiled = self._cells.place(policy)
        analysis = analyze_policy(policy)
        if gate is not None:
            gate(compiled, analysis)
        # Flip.  _program raises, if it does, before it assigns anything;
        # from there to the epoch bump is one packet boundary
        # (single-threaded cycle model).
        self._program(analysis)
        self._cells.install(compiled)
        self._plan_epoch += 1
        self._obs_swaps.inc()
        return self._plan_epoch

    def select(self) -> int | None:
        """Evaluate and return the singleton selection, if any."""
        selected = selected_id(self._serve(None))
        return None if selected < 0 else selected

    # -- batched processing -------------------------------------------------------------

    def evaluate_masks(self, masks: Sequence[int | None]) -> list[int]:
        """The batch core: one output mask per row, in arrival order, for a
        column of candidate masks (``None`` = the full table).  Rows split
        by shape:

        * **unmasked rows** of a stateless policy all get *one* memoized
          :meth:`_serve` answer;
        * **masked rows** of a stateless policy, and every row of a
          stateful one, go to the policy's kernel in one
          :meth:`~repro.engine.codegen.PlanCodegen.evaluate_masks` call,
          in arrival order (each stateful row is one step of the units
          the next row sees);
        * while the Cells take rows (:attr:`CellShadow.takes_rows
          <repro.switch.cell_shadow.CellShadow.takes_rows>`: an injected
          fault is live, or ``sanitize``), :meth:`_serve` takes those rows
          instead, one at a time, so a Cell fault raises or heals here as
          it would for the same packet alone.
        """
        rows = len(masks)
        self._batches += 1
        self._batch_rows += rows
        if self._obs_enabled:
            self._obs_batch_size.observe(rows)
        if not rows:
            return []
        # Stateful outputs advance per packet: no collapse and no
        # reordering is legal.
        unmasked = masks.count(None) if self._memoize else 0
        if not unmasked:
            return self._run_rows(masks)
        out = self._serve(None)
        self._batch_broadcast_rows += unmasked
        outs = [out] * rows
        if unmasked < rows:
            single = [i for i, mask in enumerate(masks) if mask is not None]
            for i, got in zip(single,
                              self._run_rows([masks[i] for i in single])):
                outs[i] = got
        return outs

    def _run_rows(self, masks: Sequence[int | None]) -> list[int]:
        """Rows that cannot share a memo answer: the kernel in one call,
        or the row routine while the Cells take rows."""
        if self._cells.takes_rows:
            self._batch_fallback_rows += len(masks)
            return [self._serve(mask) for mask in masks]
        self._batch_engine_rows += len(masks)
        return self._codegen.evaluate_masks(self._smbm, masks)

    def evaluate_batch(
        self, packets: "Sequence[Packet] | PacketBatch"
    ) -> PacketBatch:
        """Filter a whole batch of packets: :meth:`evaluate_masks` over the
        requesting rows' mask column, its outputs written to the batch's
        columns.

        Accepts a packet sequence (columnarised here, and the columns
        scattered back onto the packets' metadata) or a prepared
        :class:`PacketBatch`.  Rows not requesting filtering are left
        untouched.
        """
        built_here = not isinstance(packets, PacketBatch)
        batch = PacketBatch.from_packets(packets) if built_here else packets
        rows = batch.requesting_indices()
        masks = batch.input_masks
        outs = self.evaluate_masks(
            [None] * len(rows) if masks is None else [masks[i] for i in rows])
        epoch = self._plan_epoch
        for i, out in zip(rows, outs):
            batch.outputs[i] = out
            batch.selected[i] = selected_id(out)
            batch.epochs[i] = epoch
        if built_here:
            batch.scatter()
        return batch


def selected_id(out: int) -> int:
    """``META_FILTER_SELECTED`` of an output mask: the id of its single
    set bit, or -1 when it is not a singleton."""
    return (out & -out).bit_length() - 1 if out.bit_count() == 1 else -1

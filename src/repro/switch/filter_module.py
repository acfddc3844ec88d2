"""The chained multi-dimensional filter module (Figure 8).

Bundles the SMBM resource table with a compiled filter policy.  The module
is triggered per packet: the packet passes through unmodified while the
programmed policy is applied to the resource table, and the output — the
filtered set of resource ids — is written to the packet's metadata for the
RMT stages that follow (section 3).

Packets that do not want filtering simply bypass the module
(:meth:`FilterModule.evaluate_batch` leaves rows without the trigger flag
alone).

The paper maps the policy onto Cells once, at compile time (§5.3.2).  The
module keeps that placement beside what serves: the policy's semantic
analysis, the kernel and the unit state, the memo, the doors and the
counters.  A tenant slice bounds the placement
(its reserved Cells are compiled dead and its input lines restricted).

Every policy has one software lowering, its
:class:`~repro.engine.codegen.PlanCodegen` kernel, for memo misses, masked
rows, batch columns and the rows of a stateful policy alike.  A stateful
policy's unit state — LFSR registers, round-robin pointers and weights,
feedback registers — lives in the one
:class:`~repro.core.policy.UnitState` the module owns and builds the
kernel with; it is seeded by the policy alone, so no placement or
co-tenant moves it.  The Cells walk a row only under ``sanitize``: they are loaded
from the owner's units, and the kernel must agree with them on the output
and on the unit state it leaves.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from repro import obs
from repro.analysis.symbolic import SemanticAnalysis, analyze_policy
from repro.analysis.verifier import TableSchema
from repro.core.bitvector import BitVector
from repro.core.compiler import CompiledPolicy, PolicyCompiler
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
    module memoizes the evaluation result keyed on the SMBM's
    :attr:`~repro.core.smbm.SMBM.stamp`: back-to-back packets against an
    unchanged table cost a single comparison — the software analogue of
    the hardware answering the same table every clock cycle.  Every
    committed write and every restore draws a fresh stamp, and so misses
    the memo; nothing has to drop it.  Stateful policies are never
    memoized (their outputs advance per packet by design): each row is one
    step of their units on the kernel.

    Every piece of serving state is rebuilt on exactly one of two clocks:

    * the **policy clock** (construction, :meth:`hot_swap`) —
      :meth:`_program` installs what is a function of the policy alone:
      the :attr:`compiled` placement on the Cells the slice leaves, the
      :attr:`analysis` (computed once per policy; the hot-swap gate, the
      sanitizer's containment check and admission's TH021 check all read
      it), the kernel, the unit state the kernel steps
      (:meth:`export_units` / :meth:`restore_units`), the policy-labelled
      instruments, and which predicate sets the SMBM keeps (the policy's;
      every other is dropped);
    * the **stamp clock** (every committed table write, and a restore) —
      the memo entry and the kernel's specialization, both keyed on the
      table's stamp, so the clock needs no hook.
    """

    def __init__(
        self,
        capacity: int,
        metric_names: Sequence[str],
        policy: Policy,
        params: PipelineParams | None = None,
        *,
        lfsr_seed: int = 1,
        sanitize: bool = False,
        tenant: str | None = None,
        reserved_cells: "Iterable[tuple[int, int]]" = (),
        input_lines: "Iterable[int] | None" = None,
    ):
        # At most 30 instance attributes, observed or not: past CPython's
        # shared-key dict limit every attribute read on the memo-hit path
        # gets ~10 % dearer (benchmarks/overheads.py shows it).
        self._tenant = tenant
        self._smbm = SMBM(capacity, metric_names, sanitize=sanitize,
                          tenant=tenant)
        self._lfsr_seed = lfsr_seed
        # Maps a policy onto the Cells of this module's slice (its foreign
        # Cells compiled dead, its inputs restricted), checked by the static
        # verifier against the table's dimensions; raises CompilationError
        # when it does not fit, and installs nothing.
        self._place = partial(
            PolicyCompiler(params).compile, lfsr_seed=lfsr_seed,
            dead_cells=frozenset(reserved_cells),
            input_lines=None if input_lines is None else frozenset(input_lines),
            schema=TableSchema(capacity, tuple(metric_names)))
        #: The Cells check every kernel row (output and unit state).
        self.sanitize = sanitize
        # A hitless hot-swap bumps the epoch; the watermark is stamped on
        # every filter output (scalar and batched) so a packet stream
        # spanning a swap separates cleanly into old-plan/new-plan halves.
        self._plan_epoch = 0
        compiled = self._place(policy)
        self._evaluations = self._cache_hits = self._cache_misses = 0
        # Batch-tier attribution: how many rows each serving path handled.
        # "broadcast" = uniform rows collapsed to one memoized evaluation,
        # "engine" = rows the kernel served in one call (masked rows of a
        # stateless policy, every row of a stateful one), "fallback" = the
        # row routine, row by row (those rows under sanitize).
        self._batches = self._batch_rows = self._batch_broadcast_rows = 0
        self._batch_engine_rows = self._batch_fallback_rows = 0
        if sanitize:
            # Memo coherence: a committed write draws a fresh stamp, so a
            # memo entry keyed at (or past) it means a stale result could
            # be served as fresh.
            self._smbm.add_write_listener(self._sanitize_memo_listener)
        # Observability.  The memo-hit path runs in ~0.4us, so the hot
        # counters stay plain ints (above) and are turned into registry
        # samples only at collect time by a weakly-held hook — the enabled
        # and disabled paths execute identical per-packet code.  Only the
        # (much slower) miss path, which runs the whole pipeline, pays for a
        # timing capture, and only when a real registry is active.
        registry = obs.get_registry()
        self._obs_enabled = registry.enabled
        tlabels = {} if tenant is None else {"tenant": tenant}
        # Off the per-packet path, so created unconditionally: against the
        # null registry they are shared no-op singletons.
        self._obs_swaps = registry.counter(
            "filter_hot_swaps_total", {"policy": policy.name, **tlabels},
            help="hitless policy hot-swaps installed on this module",
        )
        # Construction installs the plan through the same step every
        # later plan change does.
        self._program(analyze_policy(policy), compiled)
        if self._obs_enabled:
            registry.add_hook(self._obs_collect)

    def _program(self, analysis: SemanticAnalysis,
                 compiled: CompiledPolicy) -> None:
        """The policy clock: install ``analysis`` (emitting its findings)
        and its placement ``compiled``, and build everything else that is
        a function of its policy alone, before the first assignment —
        among it the one :class:`PlanCodegen` (the row routine's lowering
        and the batch engine both) and the units it steps, freshly seeded.
        The memo is dropped beside the new kernel: its answer was the old
        policy's."""
        policy = analysis.policy
        # The one owner of the unit and feedback registers: the kernel
        # steps them, and a sanitized walk loads the Cells from them.
        units = UnitState.seeded(policy, self._lfsr_seed)
        kernel = PlanCodegen(policy, units=units)
        self._units = units
        self._compiled = compiled
        self._analysis = analysis
        self._codegen = kernel
        self._memoize = not stateless_blockers(policy)
        self._memo_stamp: int | None = None
        self._memo_output = 0
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
        labels = {"policy": self.policy.name}
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
                         help="evaluations served from the stamp memo")
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
        """The live policy placed on the Cells of this module's slice."""
        return self._compiled

    @property
    def policy(self) -> Policy:
        """The currently programmed policy (the live one after a swap)."""
        return self._analysis.policy

    @property
    def input_lines(self) -> frozenset[int] | None:
        """The pipeline input lines this module's slice may read (``None``
        = every line)."""
        return self._place.keywords["input_lines"]

    @property
    def analysis(self) -> SemanticAnalysis:
        """The live policy's semantic analysis, computed once when it was
        programmed."""
        return self._analysis

    def restore_table(
        self, state: "Mapping[str, object]", *, plan_epoch: int | None = None
    ) -> None:
        """Restore the resource table from an SMBM checkpoint state.

        The restore draws a fresh table stamp, so the memo and the
        kernel's specialization both miss and rebuild against the restored
        table, whatever its version.  ``plan_epoch`` optionally re-stamps
        the module's epoch watermark so a migrated tenant's outputs keep
        the epoch lineage of the source module; a negative one is refused
        before anything is touched.
        """
        if plan_epoch is not None and plan_epoch < 0:
            raise ConfigurationError(f"plan_epoch must be >= 0, got {plan_epoch}")
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
        return self._compiled.latency_cycles

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
        stamp-keyed memo when the table is unchanged since the last
        evaluation (a masked row's answer depends on its mask, so it always
        runs).  Exception-safe: the memo entry is dropped *before* the run
        and re-installed only on success, and only if the table stamp is
        unchanged after the run — an error (or a table write) mid-evaluation
        can therefore never leave an entry keyed on a stamp the output
        does not match.
        """
        self._evaluations += 1
        if mask is not None or not self._memoize:
            return self._miss(mask)
        stamp = self._smbm.stamp
        if stamp == self._memo_stamp:
            self._cache_hits += 1
            return self._memo_output
        self._memo_stamp = None
        out = self._miss(None)
        if self._smbm.stamp == stamp:
            self._memo_stamp = stamp
            self._memo_output = out
        self._cache_misses += 1
        return out

    def _miss(self, mask: int | None) -> int:
        """A row the memo cannot answer, over ``table ∩ mask``: the
        kernel's answer, held to the Cells and to the plan's feasible
        region under ``sanitize``; with metrics enabled it attributes wall
        time and the deterministic hardware latency."""
        t0 = time.perf_counter_ns() if self._obs_enabled else 0
        if self.sanitize:
            out = self._walk(mask)
            self._check_semantic_containment(out)
        else:
            out = self._codegen.evaluate(self._smbm, mask)
        if self._obs_enabled:
            self._obs_eval_ns.observe(time.perf_counter_ns() - t0)
            self._obs_cycles.inc(self._compiled.latency_cycles)
        return out

    def _walk(self, mask: int | None) -> int:
        """Sanitizer: the Cells walk the row from the owner's unit state,
        then the kernel steps the owner's units and must agree with the
        Cells on both output and state."""
        compiled, smbm = self._compiled, self._smbm
        stateful = not compiled.stateless
        if stateful:
            compiled.restore_units(self._units.export())
        cells = (compiled.evaluate(smbm) if mask is None else
                 compiled.evaluate_restricted(smbm, mask)).value
        out = self._agreed(self._codegen.evaluate(smbm, mask),
                           "codegen kernel", cells, "the interpreted plan")
        if stateful and self._units.export() != compiled.export_units():
            raise IntegrityError(
                f"sanitizer: codegen kernel unit state {self._units.export()} "
                f"disagrees with the interpreted plan's "
                f"{compiled.export_units()}", component="filter_module")
        return out

    def _agreed(self, fast: int, fast_name: str,
                reference: int, reference_name: str) -> int:
        """The one optimised-result-vs-reference compare: returns the
        agreed output or raises :class:`~repro.errors.IntegrityError`."""
        if fast != reference:
            raise IntegrityError(
                f"sanitizer: {fast_name} output {fast:#x} disagrees with "
                f"{reference_name} {reference:#x} on policy "
                f"{self.policy.name!r}", component="filter_module")
        return fast

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
                    f"{self.policy.name!r} — symbolic analysis unsound "
                    "or plan mis-evaluated",
                    component="filter_module",
                    resource=rid,
                )

    # -- runtime sanitizer -------------------------------------------------------------

    def _sanitize_memo_listener(self, kind: str, resource_id: int) -> None:
        """Commit-time check: no memo entry may hold the stamp a committed
        write just drew."""
        if (self._memo_stamp is not None
                and self._memo_stamp >= self._smbm.stamp):
            raise IntegrityError(
                f"sanitizer: memo keyed at stamp {self._memo_stamp} "
                f"but a {kind} of resource {resource_id} just drew "
                f"stamp {self._smbm.stamp} — stale results would be "
                "served as fresh",
                component="filter_module",
                resource=resource_id,
            )

    def sanitize_check(self) -> BitVector:
        """On-demand oracle comparison: fast path vs the O(N) reference.

        Evaluates the placed Cells and the naive
        :class:`~repro.core.policy.PolicyInterpreter` on the live table
        and raises :class:`~repro.errors.IntegrityError` on any mismatch.
        Returns the (agreed) output.  Stateless policies only: a stateful
        unit's or a feedback register's outputs advance per evaluation, so
        the two legitimately diverge.
        """
        if not self._compiled.stateless:
            raise ConfigurationError(
                "sanitize_check requires a stateless policy: stateful "
                "units legitimately diverge from the naive reference")
        # The naive reference: a walk of the policy DAG over the table's
        # rows, sharing no compiler, Cell or MetricIndex with the plan.
        reference = PolicyInterpreter(self.policy, lfsr_seed=self._lfsr_seed)
        out = self._agreed(self._compiled.evaluate(self._smbm).value,
                           "fast path", reference.evaluate(self._smbm).value,
                           "the naive reference")
        self._check_semantic_containment(out)
        return BitVector.from_int(self._smbm.capacity, out)

    def hot_swap(
        self,
        policy: Policy,
        *,
        gate: "Callable[[CompiledPolicy, SemanticAnalysis], None] | None" = None,
    ) -> int:
        """Hitlessly replace the programmed policy with ``policy``.

        The policy clock ticks.  The replacement is compiled *beside* the
        live plan (under the same tenant slice) and analysed once; ``gate``
        (e.g. a tenant
        manager's semantic and slice checks) is handed the plan and that
        analysis.  A policy that does not fit, or a gate that refuses,
        raises with the live plan, epoch and outputs untouched.  Then the
        same analysis is installed and the policy's kernel and units are
        built, and the flip is atomic on an SMBM commit boundary, with the
        memo dropped in the same step.
        No packet ever sees a mix: outputs stamped with the old
        :attr:`plan_epoch` came entirely from the old plan, outputs with
        the new epoch entirely from the new one.

        Returns the new plan epoch.
        """
        compiled = self._place(policy)
        analysis = analyze_policy(policy)
        if gate is not None:
            gate(compiled, analysis)
        # Flip.  _program raises, if it does, before it assigns anything;
        # from there to the epoch bump is one packet boundary
        # (single-threaded cycle model).
        self._program(analysis, compiled)
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
        * under ``sanitize``, :meth:`_serve` takes those rows instead, one
          at a time, so each is held to the Cells as it would be for the
          same packet alone.
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
        or the row routine under ``sanitize``."""
        if self.sanitize:
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

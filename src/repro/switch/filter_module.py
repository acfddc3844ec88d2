"""The chained multi-dimensional filter module (Figure 8).

Bundles the SMBM resource table with a compiled filter policy.  The module
is triggered per packet: the packet passes through unmodified while the
programmed policy is applied to the resource table, and the output — the
filtered set of resource ids — is written to the packet's metadata for the
RMT stages that follow (section 3).

Packets that do not want filtering simply bypass the module
(:meth:`FilterModule.hook` leaves packets without the trigger flag alone).

The paper maps the policy onto Cells once, at compile time; a fault moves
the *placement*, not the policy.  The module keeps that split: what the
policy alone determines is built when the policy changes, what the
placement determines when the Cells move, and what a table version
determines when the table is written (the three clocks in
:class:`FilterModule`'s docstring).  Its mode flags — ``self_healing``,
``sanitize``, ``codegen`` — and the tenant slice compose freely.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Mapping, Sequence

from repro import obs
from repro.analysis.domains import Region
from repro.analysis.symbolic import analyze_policy
from repro.analysis.verifier import TableSchema
from repro.core.bitvector import BitVector
from repro.core.cell import Cell
from repro.core.compiler import CompiledPolicy, PolicyCompiler
from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Policy,
    PolicyInterpreter,
    stateless_blockers,
)
from repro.core.smbm import SMBM
from repro.engine.batch import (  # re-exported: the metadata protocol is
    META_FILTER_EPOCH,            # defined at the engine layer so the
    META_FILTER_INPUT,            # batch buffer needs no switch imports
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    META_FILTER_SELECTED,
    PacketBatch,
    checked_mask,
)
from repro.engine.codegen import PlanCodegen
from repro.engine.columnar import BatchedEvaluator
from repro.errors import CellFault, ConfigurationError, IntegrityError
from repro.rmt.packet import Packet

__all__ = [
    "FilterModule",
    "PacketBatch",
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
    outputs advance per packet by design).

    Every piece of serving state is rebuilt on exactly one of three clocks:

    * the **policy clock** (construction, :meth:`hot_swap`) —
      :meth:`_program` builds what is a function of the policy alone: the
      naive reference, the ``codegen`` kernel, the masked-row batch engine,
      the sanitizer's feasible region, the policy-labelled instruments;
    * the **placement clock** (construction, :meth:`hot_swap`, every
      fail-around recompile) — :meth:`_place` maps the policy onto the
      Cells the slice and the detected faults leave and re-arms the
      physical faults, :meth:`_install` flips the plan; nothing the policy
      clock owns is touched;
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
        codegen: bool = False,
        tenant: str | None = None,
        reserved_cells: "Iterable[tuple[int, int]]" = (),
        input_lines: "Iterable[int] | None" = None,
    ):
        self._tenant = tenant
        self._reserved = frozenset(
            (int(stage), int(index)) for stage, index in reserved_cells
        )
        self._input_lines = (
            None if input_lines is None
            else frozenset(int(line) for line in input_lines)
        )
        self._smbm = SMBM(capacity, metric_names, sanitize=sanitize,
                          tenant=tenant)
        # Compile inputs are kept so fail-around can recompile the same
        # policy onto the surviving Cells after a hardware fault.
        self._params = params
        self._lfsr_seed = lfsr_seed
        self._self_healing = self_healing
        self._sanitize = sanitize
        # The table dimensions the static verifier checks the plan against
        # (width compatibility, timing closure at this N).
        self._schema = TableSchema(capacity, tuple(metric_names))
        # Physical faults: everything ever injected (re-applied to every
        # recompiled pipeline — the hardware does not heal) vs the subset
        # *detected* so far, which compilation routes around.
        self._hw_dead: set[tuple[int, int]] = set()
        self._hw_stuck: dict[tuple[int, int], dict[int, int]] = {}
        self._routed_around: set[tuple[int, int]] = set()
        self._codegen_requested = codegen
        # A hitless hot-swap bumps the epoch; the watermark is stamped on
        # every filter output (scalar and batched) so a packet stream
        # spanning a swap separates cleanly into old-plan/new-plan halves.
        self._plan_epoch = 0
        compiled = self._place(policy)
        self._evaluations = 0
        self._cache_hits = 0
        self._cache_misses = 0
        # Batch-tier attribution: how many rows each serving path handled.
        # "broadcast" = uniform rows collapsed to one memoized evaluation,
        # "engine" = columnar/codegen batch kernels, "fallback" = the
        # scalar per-row loop (stateful policies, ineligible plans).
        self._batches = 0
        self._batch_rows = 0
        self._batch_broadcast_rows = 0
        self._batch_engine_rows = 0
        self._batch_fallback_rows = 0
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
        self._program(policy)
        if self._obs_enabled:
            registry.add_hook(self._obs_collect)
        # Fault/repair instruments live off the per-packet path (faults are
        # rare events), so they are created unconditionally: against the null
        # registry they are shared no-op singletons.  With a tenant set they
        # carry the tenant label: each tenant's fault domain is a separate
        # series, so a fault in one tenant's slice never moves another's
        # counters.
        tlabels = {} if tenant is None else {"tenant": tenant}
        self._obs_cell_dead = registry.counter(
            "faults_detected_total", {"kind": "cell_dead", **tlabels},
            help="dead Cells detected (CellFault) and routed around",
        )
        self._obs_cell_stuck = registry.counter(
            "faults_detected_total", {"kind": "cell_stuck", **tlabels},
            help="silently corrupting Cells localized by self-test",
        )
        self._obs_repair_ns = registry.histogram(
            "repair_latency_ns", {"component": "filter_module", **tlabels},
            help="fault-to-recompiled recovery wall time (ns, pow2 buckets)",
        )
        self._obs_degraded = registry.gauge(
            "degraded_mode", {"policy": policy.name, **tlabels},
            help="Cells currently routed around (0 = healthy hardware)",
        )
        self._obs_swaps = registry.counter(
            "filter_hot_swaps_total", {"policy": policy.name, **tlabels},
            help="hitless policy hot-swaps installed on this module",
        )
        self._obs_cache_resets = registry.counter(
            "serving_cache_resets_total", tlabels or None,
            help="serving-cache invalidations (memo, batch evaluator, "
                 "codegen kernels) on install, hot-swap, fail-around, "
                 "and table restore",
        )
        # Construction installs the plan through the same step every
        # later plan change does (and counts its cache reset).
        self._install(compiled)

    def _program(self, policy: Policy) -> None:
        """The policy clock: build everything that is a function of the
        policy alone.  Every lowering is built before the first assignment,
        so a policy one of them refuses (``codegen=True`` on a plan with
        TH012 blockers raises :class:`~repro.errors.ConfigurationError`)
        leaves the module exactly as it was."""
        # The naive reference self_test() and sanitize_check() hold the
        # plan to: a walk of the policy DAG over the table's sorted lists,
        # sharing no compiler, Cell or MetricIndex with the plan it judges.
        reference = PolicyInterpreter(policy, lfsr_seed=self._lfsr_seed)
        # The one masked-row batch engine: the kernel tier when armed, else
        # the interpreted columnar tier for every plan the stateless fold
        # can express, else none (those rows take the row routine).
        kernel = engine = None
        if self._codegen_requested:
            kernel = engine = PlanCodegen(policy)
        elif not stateless_blockers(policy):
            engine = BatchedEvaluator(policy, self._smbm.capacity)
        self._policy = policy
        self._reference = reference
        self._codegen = kernel
        self._engine = engine
        # Sanitizer-side soundness witness for the symbolic analyzer: the
        # feasible output region of the policy, derived on first use.
        self._region: Region | None = None
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
                help="requesting rows per evaluate_batch call (pow2 buckets)",
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
                         help="evaluate_batch calls")
        yield obs.Sample("filter_batch_rows_total", self._batch_rows,
                         labels=labels,
                         help="requesting rows seen by evaluate_batch")
        for path, rows in (("broadcast", self._batch_broadcast_rows),
                           ("engine", self._batch_engine_rows),
                           ("fallback", self._batch_fallback_rows)):
            yield obs.Sample(
                "filter_batch_path_rows_total", rows,
                labels=labels + (("path", path),),
                help="batch rows served, by serving path",
            )

    def _place(self, policy: Policy) -> CompiledPolicy:
        """The placement clock: map ``policy`` onto the Cells this module
        may use — its tenant slice (reserved Cells + allowed input lines)
        less any Cells routed around after faults — and re-arm the physical
        faults on the result, which outlive any recompile (excluded Cells
        are killed by the compilation itself and never routed through).

        Raises :class:`~repro.errors.CompilationError` only when the policy
        truly does not fit those Cells."""
        compiled = PolicyCompiler(self._params).compile(
            policy, lfsr_seed=self._lfsr_seed,
            dead_cells=self._reserved | self._routed_around,
            input_lines=self._input_lines, schema=self._schema,
        )
        pipeline = compiled.pipeline
        for pos in self._hw_dead - compiled.dead_cells:
            pipeline.cell_at(*pos).kill()
        for pos, sides in self._hw_stuck.items():
            if pos not in compiled.dead_cells:
                for side, stuck in sides.items():
                    pipeline.cell_at(*pos).inject_stuck(side, stuck)
        return compiled

    @property
    def smbm(self) -> SMBM:
        """The resource table (writable through add/delete/update)."""
        return self._smbm

    @property
    def tenant(self) -> str | None:
        """The owning tenant, or ``None`` for a dedicated (solo) module."""
        return self._tenant

    @property
    def reserved_cells(self) -> frozenset[tuple[int, int]]:
        """Cells outside this module's slice of the shared pipeline —
        statically excluded from every compilation."""
        return self._reserved

    @property
    def input_lines(self) -> frozenset[int] | None:
        """Pipeline input lines this module may drive, or ``None`` when it
        owns the whole input stage."""
        return self._input_lines

    @property
    def plan_epoch(self) -> int:
        """Plan generation counter: 0 at construction, +1 per hot-swap."""
        return self._plan_epoch

    @property
    def compiled(self) -> CompiledPolicy:
        return self._compiled

    @property
    def policy(self) -> Policy:
        """The currently programmed policy (the live one after a swap)."""
        return self._policy

    def restore_table(
        self, state: "Mapping[str, object]", *, plan_epoch: int | None = None
    ) -> None:
        """Restore the resource table from an SMBM checkpoint state.

        Every serving cache is dropped *before* the restore lands: the
        restored version counter may be lower than (or collide with) the
        live one, so version-keyed reuse across a restore is unsound — the
        memo, batch evaluator, and codegen kernels all rebuild against the
        restored table.  ``plan_epoch`` optionally re-stamps the module's
        epoch watermark so a migrated tenant's outputs keep the epoch
        lineage of the source module.
        """
        self._reset_serving_caches()
        self._smbm.restore_state(state)
        if plan_epoch is not None:
            if plan_epoch < 0:
                raise ConfigurationError(
                    f"plan_epoch must be >= 0, got {plan_epoch}"
                )
            self._plan_epoch = int(plan_epoch)

    @property
    def codegen(self):
        """The policy's :class:`~repro.engine.codegen.PlanCodegen` tier, or
        ``None`` when the module was built without ``codegen=True``."""
        return self._codegen

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
        set (``None`` = the full table); every entry point — :meth:`hook`,
        :meth:`evaluate`, :meth:`select`, each :meth:`evaluate_batch` row
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
        """A row the memo cannot answer: run it, failing around dead Cells
        when self-healing is enabled, attributing wall time and the
        deterministic hardware latency when metrics are enabled."""
        return self._failing_around(
            self._timed_run if self._obs_enabled else self._run, mask)

    def _failing_around(self, run: "Callable[[int | None], int]",
                        mask: int | None) -> int:
        """``run(mask)``, retried on the surviving Cells after each dead
        Cell it meets when self-healing is enabled."""
        while True:
            try:
                return run(mask)
            except CellFault as fault:
                if not self._self_healing:
                    raise
                self._heal_dead(fault)

    def _timed_run(self, mask: int | None) -> int:
        t0 = time.perf_counter_ns()
        out = self._run(mask)
        self._obs_eval_ns.observe(time.perf_counter_ns() - t0)
        self._obs_cycles.inc(self._compiled.latency_cycles)
        return out

    def _run(self, mask: int | None) -> int:
        """The specialized kernel when armed, else the compiled pipeline;
        under ``sanitize`` the kernel is held to the pipeline and every
        output to the plan's feasible region."""
        if self._codegen is None:
            out = self._plan_output(mask)
        else:
            out = self._codegen.evaluate(self._smbm, mask)
            if self._sanitize:
                # The interpreted plan stays the differential oracle of
                # the generated code.
                self._agreed(out, "codegen kernel",
                             self._plan_output(mask), "the interpreted plan")
        if self._sanitize:
            self._check_semantic_containment(out)
        return out

    def _plan_output(self, mask: int | None) -> int:
        """The compiled pipeline's output over ``table ∩ mask``."""
        if mask is None:
            return self._compiled.evaluate(self._smbm).value
        return self._compiled.evaluate_restricted(self._smbm, mask).value

    def _agreed(self, fast: int, fast_name: str,
                reference: int, reference_name: str) -> int:
        """The one optimised-result-vs-reference compare: returns the
        agreed output or raises :class:`~repro.errors.IntegrityError`."""
        if fast != reference:
            raise IntegrityError(
                f"sanitizer: {fast_name} output {fast:#x} disagrees with "
                f"{reference_name} {reference:#x} on policy "
                f"{self._policy.name!r}",
                component="filter_module",
            )
        return fast

    def _fast_vs_oracle(self) -> int:
        """The compiled plan against the naive interpreter on the live
        table.  Stateless plans only: a stateful unit's or a feedback
        register's outputs advance per evaluation, so the two legitimately
        diverge."""
        if not self._compiled.stateless:
            raise ConfigurationError(
                "sanitize_check and self_test require a stateless policy: "
                "stateful units legitimately diverge from the naive reference"
            )
        return self._agreed(
            self._plan_output(None), "fast path",
            self._reference.evaluate(self._smbm).value,
            "the naive reference",
        )

    def _semantic_root_region(self) -> Region:
        """The symbolic analyzer's over-approximation of the rows the
        live policy can ever select (it reads the policy and the schema
        only, so it is cached per policy)."""
        if self._region is None:
            self._region = analyze_policy(
                self._policy, schema=self._schema
            ).root_region
        return self._region

    def _check_semantic_containment(self, output_bits: int) -> None:
        """Sanitizer half of the soundness contract: every selected row
        must lie inside the plan's feasible region.  A hit outside it
        means a region the analyzer proved unreachable (TH017/TH018)
        received traffic — the analysis would be unsound."""
        if not output_bits:
            return
        region = self._semantic_root_region()
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

    @property
    def sanitize(self) -> bool:
        """True when commit-time invariant checking is armed."""
        return self._sanitize

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
        out = self._fast_vs_oracle()
        self._check_semantic_containment(out)
        return BitVector.from_int(self._smbm.capacity, out)

    # -- fault injection, detection and fail-around ----------------------------------

    @property
    def self_healing(self) -> bool:
        return self._self_healing

    @property
    def routed_around(self) -> frozenset[tuple[int, int]]:
        """Detected-faulty Cells the current compilation avoids."""
        return frozenset(self._routed_around)

    @property
    def degraded(self) -> bool:
        """True while the policy runs on a reduced set of Cells."""
        return bool(self._routed_around)

    def inject_cell_kill(self, stage: int, index: int) -> None:
        """Physical fault: the Cell at (stage, index) dies.

        The fault persists across recompilations (hardware does not heal);
        detection happens on the next evaluation that routes through the
        Cell (loud :class:`~repro.errors.CellFault`) or via
        :meth:`self_test`.
        """
        self._hw_dead.add((stage, index))
        self._compiled.pipeline.cell_at(stage, index).kill()

    def inject_cell_stuck(self, stage: int, index: int, side: int,
                          stuck: int) -> None:
        """Physical fault: output column ``side`` wedges at ``stuck``.

        Silent corruption — nothing raises; only :meth:`self_test` (golden
        model comparison) can detect and localize it.
        """
        self._hw_stuck.setdefault((stage, index), {})[side] = stuck
        self._compiled.pipeline.cell_at(stage, index).inject_stuck(side, stuck)

    def remove_cell_stuck(self, stage: int, index: int, side: int) -> None:
        """Undo an injected stuck fault (an injector reverting a flip that
        turned out to be unobservable on the programmed policy)."""
        pos = (stage, index)
        sides = self._hw_stuck.get(pos)
        if sides is not None:
            sides.pop(side, None)
            if not sides:
                del self._hw_stuck[pos]
        self._compiled.pipeline.cell_at(stage, index).clear_stuck(side)

    def _recompile(self) -> None:
        """Fail-around: a tick of the placement clock alone — the policy's
        reference, kernel and batch engine are the objects they were."""
        self._install(self._place(self._policy))

    def _reset_serving_caches(self) -> None:
        """Drop every serving cache derived from the plan or the table.

        One sequence, used everywhere a cache could go stale: module
        install (construction), hitless hot-swap, fail-around
        recompilation, and checkpoint restore.  Covers the version-keyed
        scalar memo and the codegen tier's specialized kernel (the
        interpreted batch evaluator keeps nothing between calls); counted
        once per reset on ``serving_cache_resets_total``.
        """
        # Single-entry memo: the SMBM version only moves forward, so older
        # results can never become valid again.
        self._memo_version: int | None = None
        self._memo_output = 0
        if self._codegen is not None:
            self._codegen.invalidate()
        self._obs_cache_resets.inc()

    def _install(self, compiled: CompiledPolicy) -> None:
        """Atomically make ``compiled`` the live plan: flip the plan
        reference and drop every version-keyed cache in one step, so no
        later evaluation can mix old-plan state with the new plan."""
        self._compiled = compiled
        self._memoize = compiled.stateless
        self._reset_serving_caches()

    def hot_swap(
        self,
        policy: Policy,
        *,
        gate: "Callable[[CompiledPolicy], None] | None" = None,
    ) -> int:
        """Hitlessly replace the programmed policy with ``policy``.

        Both the policy and the placement clock tick.  The replacement is
        compiled *beside* the live plan (under the same tenant slice and
        fault exclusions) and optionally vetted by ``gate`` (e.g. a tenant
        manager's slice verifier); its lowerings are built beside the live
        ones.  Any of the three may raise — a policy that does not fit, a
        gate that refuses, ``codegen=True`` on a policy with TH012
        blockers — and the live plan, epoch and outputs are then untouched.
        Otherwise the flip is atomic on an SMBM version boundary, with
        every version-keyed cache dropped in the same step.
        No packet ever sees a mix: outputs stamped with the old
        :attr:`plan_epoch` came entirely from the old plan, outputs with
        the new epoch entirely from the new one.

        Returns the new plan epoch.
        """
        compiled = self._place(policy)
        if gate is not None:
            gate(compiled)
        # Flip.  _program raises, if it does, before it assigns anything;
        # from there to the epoch bump is one packet boundary
        # (single-threaded cycle model).
        self._program(policy)
        self._install(compiled)
        self._plan_epoch += 1
        self._obs_swaps.inc()
        return self._plan_epoch

    def _heal_dead(self, fault: CellFault) -> tuple[int, int]:
        """Route around the dead Cell a CellFault just reported."""
        if fault.stage is None or fault.index is None:
            raise fault  # unlocatable: nothing to route around
        pos = (fault.stage, fault.index)
        if pos in self._routed_around:
            raise fault  # already excluded yet faulted again: give up loudly
        t0 = time.perf_counter_ns()
        self._routed_around.add(pos)
        try:
            self._recompile()
        except Exception:
            self._routed_around.discard(pos)
            raise
        self._obs_cell_dead.inc()
        self._obs_repair_ns.observe(time.perf_counter_ns() - t0)
        self._obs_degraded.set(len(self._routed_around))
        return pos

    def self_test(self) -> list[dict[str, object]]:
        """Built-in self-test: golden-model comparison with per-Cell
        localization, healing every fault it finds.

        Compares the fast-path pipeline against the naive
        :class:`~repro.core.policy.PolicyInterpreter` (the reference
        :meth:`sanitize_check` uses too) on the live table.  Detection
        stands on that independent reference; localisation needs only a
        fault-free clone: on mismatch, each active physical Cell is
        replayed against a fresh Cell of the same configuration *on the
        inputs it actually saw*, so exactly the corrupted Cells are
        implicated (and a disagreement no Cell accounts for — a corrupt
        index, a mis-compile — is reported, not pinned on healthy
        hardware); they are then routed around by recompilation.  Dead
        Cells discovered along the way are healed the same way.  Returns
        the faults found, e.g. ``[{"stage": 2, "index": 0, "kind":
        "cell_stuck"}]`` (empty = healthy).

        Only valid for stateless policies.
        """
        healed: list[dict[str, object]] = []
        while True:
            try:
                try:
                    self._fast_vs_oracle()
                    return healed
                except IntegrityError:
                    healed.extend(self._localize_stuck())
            except CellFault as fault:
                stage, index = self._heal_dead(fault)
                healed.append(
                    {"stage": stage, "index": index, "kind": "cell_dead"}
                )

    def _localize_stuck(self) -> list[dict[str, object]]:
        """Replay each active Cell against a fault-free clone; heal the
        liars."""
        t0 = time.perf_counter_ns()
        probes = self._compiled.pipeline.evaluate_probed(self._smbm)
        chain = self._compiled.params.chain_length
        suspects: list[dict[str, object]] = []
        for (stage, index), (in1, in2, out1, out2) in sorted(probes.items()):
            cfg = self._compiled.config.stages[stage - 1].cells[index]
            g1, g2 = Cell(chain, cfg).evaluate(in1, in2, self._smbm)
            if g1 != out1 or g2 != out2:
                suspects.append(
                    {"stage": stage, "index": index, "kind": "cell_stuck"}
                )
        if not suspects:
            raise IntegrityError(
                "fast path disagrees with the naive reference but no Cell "
                "could be localized",
                component="filter_module",
            )
        for s in suspects:
            self._routed_around.add((s["stage"], s["index"]))
        try:
            self._recompile()
        except Exception:
            for s in suspects:
                self._routed_around.discard((s["stage"], s["index"]))
            raise
        self._obs_cell_stuck.inc(len(suspects))
        self._obs_repair_ns.observe(time.perf_counter_ns() - t0)
        self._obs_degraded.set(len(self._routed_around))
        return suspects

    def select(self) -> int | None:
        """Evaluate and return the singleton selection, if any."""
        selected = _selected(self._serve(None))
        return None if selected < 0 else selected

    def hook(self, packet: Packet) -> None:
        """The per-stage module hook: filter on request, bypass otherwise.

        A ``META_FILTER_INPUT`` candidate mask restricts the table the
        policy sees for this packet, exactly as a masked batch row."""
        meta = packet.metadata
        if not meta.get(META_FILTER_REQUEST):
            return
        mask = meta.get(META_FILTER_INPUT)
        out = self._serve(None if mask is None else checked_mask(mask))
        meta[META_FILTER_OUTPUT] = out
        meta[META_FILTER_SELECTED] = _selected(out)
        meta[META_FILTER_EPOCH] = self._plan_epoch

    # -- batched processing -------------------------------------------------------------

    def evaluate_batch(
        self, packets: "Sequence[Packet] | PacketBatch"
    ) -> PacketBatch:
        """Filter a whole batch of packets through the columnar tiers.

        Accepts a packet sequence (columnarised here) or a prepared
        :class:`PacketBatch`.  Rows split by shape:

        * **uniform rows** (no ``META_FILTER_INPUT`` mask) of a stateless
          policy collapse to a *single* :meth:`evaluate` per batch, whose
          result is broadcast;
        * **masked rows** of a stateless policy run through the batch
          engine (the codegen tier when armed, else the interpreted
          columnar evaluator);
        * every other row — all rows of a stateful policy, masked rows of
          a plan neither tier can express — is served one at a time by
          :meth:`_serve`, exactly as :meth:`hook` would, in arrival order
          (each stateful evaluation advances the units the next one sees).

        Rows not requesting filtering are left untouched.  The filled
        output columns are returned on the batch; for a batch built from
        packets, :meth:`PacketBatch.scatter` writes them back to packet
        metadata (done here automatically).
        """
        built_here = not isinstance(packets, PacketBatch)
        batch = PacketBatch.from_packets(packets) if built_here else packets
        rows = batch.requesting_indices()
        self._batches += 1
        self._batch_rows += len(rows)
        if self._obs_enabled:
            self._obs_batch_size.observe(len(rows))
        if not rows:
            return batch
        outputs = batch.outputs
        selected = batch.selected
        masks = batch.input_masks
        if not self._compiled.stateless:
            # Stateful outputs advance per packet: no collapse and no
            # reordering is legal.
            uniform, single = [], rows
        elif masks is None:
            uniform, single = rows, []
        else:
            uniform = [i for i in rows if masks[i] is None]
            single = [i for i in rows if masks[i] is not None]
        if uniform:
            out = self.evaluate().value
            pick = _selected(out)
            for i in uniform:
                outputs[i] = out
                selected[i] = pick
            self._batch_broadcast_rows += len(uniform)
        # A batch engine exists only for stateless plans, so every row it is
        # handed has a mask.
        engine = self._engine
        if single and engine is not None:
            row_masks = [masks[i] for i in single]  # type: ignore[index]
            outs = engine.evaluate_masks(self._smbm, row_masks)
            self._batch_engine_rows += len(single)
            if self._sanitize:
                # The batched tiers are held to what the row routine holds
                # its kernel to: the interpreted plan on the same mask (so
                # a Cell fault the scalar path would raise, or heal, is
                # raised or healed here too) and the plan's feasible
                # region, which over-approximates every output row whatever
                # the mask.
                for mask, out in zip(row_masks, outs):
                    plan = self._failing_around(self._plan_output, mask)
                    self._agreed(out, "batch engine",
                                 plan, "the interpreted plan")
                    self._check_semantic_containment(out)
            for i, out in zip(single, outs):
                outputs[i] = out
                selected[i] = _selected(out)
        elif single:
            for i in single:
                out = self._serve(None if masks is None else masks[i])
                outputs[i] = out
                selected[i] = _selected(out)
            self._batch_fallback_rows += len(single)
        epochs = batch.epochs
        epoch = self._plan_epoch
        for i in rows:
            epochs[i] = epoch
        if built_here:
            batch.scatter()
        return batch


def _selected(out: int) -> int:
    """``META_FILTER_SELECTED`` of an output mask: the id of its single
    set bit, or -1 when it is not a singleton."""
    return (out & -out).bit_length() - 1 if out.bit_count() == 1 else -1

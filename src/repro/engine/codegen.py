"""Per-policy codegen: every policy becomes a flat specialized closure.

The interpreted fast path pays Python dispatch per operator object per
packet, plus the bounds/width/liveness checks the pipeline model carries.
A kernel pays neither.  :class:`PlanCodegen` emits, once per distinct
plan, one small Python module of straight-line code whose
``specialize(smbm)`` resolves everything that is constant for one table
state (predicate satisfying-sets, which the SMBM keeps and patches one
bit per write, and bound min/max searches) and returns a flat
``kernel(mask) -> mask`` closure over those constants: no operator
objects, no checks, no dispatch.  The source is the policy folded
(:func:`repro.core.policy.fold`) in the :class:`_ScalarEmitter` domain,
whose values are variable names.

A policy with round-robin or random units, or with
:attr:`~repro.core.policy.Policy.feedback` registers, is lowered the same
way.  Its ``specialize(smbm, units, regs)`` also computes the stateless
*frontier* (the pure values the units read) once for the unmasked table,
and its row routine steps each unit over it (a pointer/weight move or
an LFSR advance, then ``encode_cyclic``, K rounds for ``k > 1``: the
hardware unit's own step, :attr:`repro.core.kufpu.KUFPU.step`), both
arms of a Conditional before the MUX, and then writes the registers.
The units and registers are the
:class:`~repro.core.policy.UnitState` its owner passes the constructor
(:attr:`PlanCodegen.units`); the kernel keeps no cross-packet state of
its own.  Whether a policy is stateless decides only whether its outputs
may be memoised, never whether it has a kernel.

The tier is a lowering of the *policy*: it takes no compiled plan, the
compiler (:mod:`repro.core.compiler`) does not know it exists, and a
:class:`~repro.switch.filter_module.FilterModule` builds one for every
policy on its policy clock (construction and ``hot_swap``).

Sources are cached module-wide on ``plan_hash`` (a digest of the
policy's canonical document, :func:`~repro.core.policy.policy_to_dict`)
and exec'd once; specialized kernels are cached per instance on
:attr:`~repro.core.smbm.SMBM.stamp`, the key the filter module's memo
reads too.  A table's commit or restore draws a fresh stamp, and no two
tables share one, so the next evaluation respecializes and nothing
staler, nor another table's kernel, can ever be served.

A batch runs the same kernel row by row
(:meth:`PlanCodegen.evaluate_masks`), in arrival order, so one object is
both the row routine's lowering and the module's batch engine: B rows of
a stateful policy on one table state are B unit steps over one
frontier.  What it saves over the interpreted column fold is
per-operator dispatch, which the fold pays once per *batch*: on a wide
column the two are even, on short columns and single rows the kernel
wins (DESIGN.md, ``tools/lowering_costs.py``).

The generated code is the optimisation, never the spec: under
``sanitize=True`` the filter module holds every kernel row and every
batch-engine row to the interpreted pipeline on the same mask (the Cells
loaded with the units' state from before the row), and the differential
suites hold both to the naive
:class:`~repro.core.policy.PolicyInterpreter` at the same ``lfsr_seed``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Sequence

from repro import obs
from repro.core.operators import BinaryOp, RelOp, UnaryOp
from repro.core.policy import (
    Binary,
    Conditional,
    Policy,
    TableRef,
    Unary,
    UnitState,
    fold,
    policy_to_dict,
    postorder,
)
from repro.core.smbm import SMBM
from repro.errors import ConfigurationError

__all__ = ["PlanCodegen", "generate_plan_source", "plan_hash_of"]


#: exec'd namespaces keyed by plan hash: each distinct plan shape is
#: generated and compiled exactly once per process, however many modules
#: (or benchmark sweeps) instantiate it.
_SOURCE_CACHE: dict[str, dict] = {}


def plan_hash_of(policy: Policy) -> str:
    """The plan hash: a digest of the policy's canonical document
    (:func:`~repro.core.policy.policy_to_dict`) less its display ``name``.

    The document numbers nodes by post-order position, so node identity
    (sharing) is part of it: ``union(p, p)`` of one shared predicate and
    ``union(p1, p2)`` of two structurally equal predicates hash
    differently — they are different plans (one evaluation vs two).
    """
    doc = policy_to_dict(policy)
    del doc["name"]
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


class _ScalarEmitter:
    """Fold domain whose values are kernel variable names: each operator
    appends one line of straight-line int-mask code, and whatever is
    constant per table state to :attr:`preamble`; each relational
    operator a predicate names joins :attr:`relops`, the table the code
    indexes as ``RELOPS[j]``.

    A line that reads a unit or a feedback register, directly or through
    its operands, is a *step* (:attr:`steps`): it runs once per row.
    Every other line is *pure* (:attr:`body`), a function of the
    candidate table ``t`` alone; :attr:`frontier` lists the pure values a
    step reads.  The ``j``-th unit the fold meets is ``units[j]``: the
    fold's post-order."""

    _SYMBOL = {
        BinaryOp.UNION: "|",
        BinaryOp.INTERSECTION: "&",
        BinaryOp.DIFFERENCE: "& ~",
    }

    def __init__(self) -> None:
        self.relops: list[RelOp] = []
        self.preamble: list[str] = []
        self.body: list[str] = []
        self.steps: list[str] = []
        self.frontier: list[str] = []
        self._units = 0
        self._stepped: set[str] = set()

    def _const(self, expr: str) -> str:
        var = f"c{len(self.preamble)}"
        self.preamble.append(f"{var} = {expr}")
        return var

    def _emit(self, expr: str, *operands: str, step: bool = False) -> str:
        var = f"v{len(self.body) + len(self.steps)}"
        if step or any(o in self._stepped for o in operands):
            self.steps.append(f"{var} = {expr}")
            self._stepped.add(var)
            self.read(*operands)
        else:
            self.body.append(f"{var} = {expr}")
        return var

    def read(self, *operands: str) -> None:
        """A step reads ``operands``: the pure ones join the frontier."""
        for o in operands:
            if o not in self._stepped and o != "t" and o not in self.frontier:
                self.frontier.append(o)

    def table(self, node: TableRef) -> str:
        return "t"

    def feedback(self, node: TableRef) -> str:
        return self._emit(f"regs.get({node.input_index}, 0)", step=True)

    def predicate(self, node: Unary, child: str) -> str:
        cfg = node.config
        if cfg.rel_op not in self.relops:
            self.relops.append(cfg.rel_op)
        sat = self._const(
            f"smbm.predicate_set({cfg.attr!r}, "
            f"RELOPS[{self.relops.index(cfg.rel_op)}], {cfg.val})"
        )
        return self._emit(f"{child} & {sat}", child)

    def select(self, node: Unary, child: str) -> str:
        cfg = node.config
        select = self._const(f"smbm.metric_index({cfg.attr!r}).select_mask")
        largest = cfg.opcode is UnaryOp.MAX
        return self._emit(f"{select}({child}, {cfg.k}, {largest})", child)

    def unit(self, node: Unary, child: str) -> str:
        step = self._const(f"units[{self._units}]")
        self._units += 1
        return self._emit(f"{step}({child}, smbm)", child, step=True)

    def binary(self, node: Binary, left: str, right: str) -> str:
        return self._emit(f"{left} {self._SYMBOL[node.opcode]} {right}",
                          left, right)

    def conditional(self, node: Conditional, primary: str,
                    fallback: str) -> str:
        return self._emit(f"{primary} if {primary} else {fallback}",
                          primary, fallback)


def generate_plan_source(policy: Policy) -> tuple[str, str, tuple[RelOp, ...]]:
    """Emit the plan's specialized source.

    Returns ``(source, plan_hash, relops)``; ``relops`` is the table the
    generated code indexes as ``RELOPS[j]`` (enum members cannot be
    spelled as literals).  The source is capacity-independent: everything
    table-shaped is resolved inside ``specialize`` at run time.
    """
    digest = plan_hash_of(policy)
    emitter = _ScalarEmitter()
    values: dict[int, str] = {}
    root = fold(policy, emitter, values)
    # The header names only the plan hash: equal plans must emit
    # byte-identical source (the module-wide cache is keyed on the hash,
    # and the policy's display name is metadata, not plan content).
    head = "smbm, units, regs" if emitter.steps else "smbm"
    lines = [f"# plan {digest}", "", f"def specialize({head}):"]
    lines += ["    " + line for line in emitter.preamble]
    # Every register is written after every line has read it: one packet
    # boundary, as in the interpreter.
    writes = [f"regs[{line}] = {values[bound.node_id]}"
              for line, bound in sorted(policy.feedback.items())]
    emitter.read(root, *(values[b.node_id] for b in policy.feedback.values()))
    body = ["        " + line for line in emitter.body]
    if emitter.steps and emitter.frontier:
        # The pure values the steps read: computed once per table state
        # for the unmasked table, and per row only for a masked one.
        front = ", ".join(emitter.frontier) + ","
        lines += ["    def frontier(t):", *body, f"        return ({front})",
                  "    T = smbm.id_mask()", "    F = frontier(T)",
                  "    def kernel(t):",
                  f"        {front} = F if t == T else frontier(t)"]
    else:
        lines += ["    def kernel(t):", *body]
    lines += ["        " + line for line in emitter.steps + writes]
    lines += [f"        return {root}", "    return kernel"]
    return "\n".join(lines) + "\n", digest, tuple(emitter.relops)


class PlanCodegen:
    """The codegen tier of one policy.

    A lowering of the policy alone — no compilation, placement or Cell
    enters it — so it is built when the policy changes.  Every policy has
    one.  The kernel of a policy with units or feedback registers steps
    the :class:`~repro.core.policy.UnitState` its owner passes as
    ``units`` (a stateless kernel never reads it): it holds no
    cross-packet state of its own.
    """

    def __init__(self, policy: Policy, units: UnitState | None = None):
        self._policy = policy
        self._units = units
        # The order the generated code indexes its units in: the fold's
        # post-order.
        self._unit_ids = [
            node.node_id for node in postorder(policy.root)
            if isinstance(node, Unary) and node.config.opcode.is_stateful
        ]
        self._stateful = bool(self._unit_ids or policy.feedback)
        source, digest, relops = generate_plan_source(policy)
        self._source = source
        self._hash = digest
        namespace = _SOURCE_CACHE.get(digest)
        if namespace is None:
            namespace = {"__builtins__": {}, "RELOPS": relops}
            exec(compile(source, f"<plan {digest}>", "exec"), namespace)
            _SOURCE_CACHE[digest] = namespace
        self._specialize = namespace["specialize"]
        # Single-entry kernel cache keyed on the table's stamp, as the
        # FilterModule memo is: a stamp never comes back, so an older
        # kernel can never become valid again.
        self._kernel_stamp: int | None = None
        self._kernel = None
        # Hot-path counters stay plain ints; a weakly-held collect hook
        # publishes them only when a real registry is active.
        self._specializations = 0
        self._hits = 0
        self._misses = 0
        registry = obs.get_registry()
        self._obs_policy = policy.name
        if registry.enabled:
            registry.add_hook(self._obs_collect)

    def _obs_collect(self):
        labels = (("policy", self._obs_policy),)
        yield obs.Sample(
            "codegen_cache_hits_total", self._hits, labels=labels,
            help="evaluations served by an already-specialized kernel",
        )
        yield obs.Sample(
            "codegen_cache_misses_total", self._misses, labels=labels,
            help="evaluations that had to respecialize (table stamp moved)",
        )
        yield obs.Sample(
            "codegen_specializations_total", self._specializations,
            labels=labels,
            help="specialized scalar kernels built",
        )

    @property
    def policy(self) -> Policy:
        return self._policy

    @property
    def plan_hash(self) -> str:
        """Digest of the canonical DAG: the source-cache key."""
        return self._hash

    @property
    def source(self) -> str:
        """The generated module source (for inspection and tests)."""
        return self._source

    @property
    def units(self) -> UnitState | None:
        """The state a stateful kernel steps, as passed at construction."""
        return self._units

    # -- scalar lane ---------------------------------------------------------------

    def kernel(self, smbm: SMBM):
        """The flat ``kernel(mask) -> mask`` closure for the table's
        current :attr:`~repro.core.smbm.SMBM.stamp`, specializing when it
        moved."""
        stamp, units = smbm.stamp, self._units
        if stamp == self._kernel_stamp:
            self._hits += 1
            return self._kernel
        if not self._stateful:
            kernel = self._specialize(smbm)
        elif units is None:
            raise ConfigurationError(
                f"policy {self._policy.name!r} keeps cross-packet state: "
                "its kernel steps the UnitState its owner passes as units"
            )
        else:
            kernel = self._specialize(
                smbm, [units.units[nid].step for nid in self._unit_ids],
                units.registers)
        self._kernel = kernel
        self._kernel_stamp = stamp
        self._specializations += 1
        self._misses += 1
        return kernel

    def evaluate(self, smbm: SMBM, mask: int | None = None) -> int:
        """One packet's policy output over ``table ∩ mask`` (``None`` = the
        full table) as a raw int mask."""
        present = smbm.id_mask()
        return self.kernel(smbm)(present if mask is None else present & mask)

    # -- batch lane ----------------------------------------------------------------

    def evaluate_masks(self, smbm: SMBM,
                       masks: Sequence[int | None]) -> list[int]:
        """One output mask per input mask (inputs are intersected with the
        table's presence mask, ``None`` is the full table): the flat
        scalar kernel, row by row, in order — so a stateful kernel steps
        its units once per row, as the rows arrived."""
        if not masks:
            return []
        kern = self.kernel(smbm)
        present = smbm.id_mask()
        return [kern(present if m is None else present & m) for m in masks]

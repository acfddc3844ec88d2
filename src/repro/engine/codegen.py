"""Per-policy codegen: eligible policies become flat specialized closures.

The interpreted fast path pays Python dispatch per operator object per
packet, plus the bounds/width/liveness checks the pipeline model carries.
For a policy :func:`~repro.core.policy.stateless_blockers` has nothing
against — no stateful unit, no feedback register — all of that is dead
weight: the policy's meaning is a pure function of the table contents.

:class:`PlanCodegen` therefore emits, once per distinct plan, one small
Python module of straight-line code whose ``specialize(smbm)`` resolves
everything that is constant for one table version (predicate
satisfying-sets as raw int masks, bound min/max bisect methods) and
returns a flat ``kernel(mask) -> mask`` closure over those constants: no
operator objects, no checks, no dispatch.  The source is the policy
folded (:func:`repro.core.policy.fold`) in the :class:`_ScalarEmitter`
domain, whose values are variable names.

The tier is a lowering of the *policy*: it takes no compiled plan, the
compiler (:mod:`repro.core.compiler`) does not know it exists, and a
:class:`~repro.switch.filter_module.FilterModule` builds it on its policy
clock — construction and ``hot_swap`` — so a fail-around recompile onto
other Cells keeps the same object.

Sources are cached module-wide on ``plan_hash`` (a digest of the
canonical DAG serialization) and exec'd once; specialized kernels are
cached per instance on ``smbm.version`` — exactly the key the scalar
memo invalidates on, so a committed table write respecializes on the
next evaluation and nothing staler can ever be served.

A batch runs the same kernel row by row
(:meth:`PlanCodegen.evaluate_masks`): what it saves over the interpreted
column fold is per-operator dispatch, which the fold already pays once
per *batch* — so the kernel earns its keep on single rows, not on wide
columns (DESIGN.md has the measurement).

The generated code is the optimisation, never the spec: under
``sanitize=True`` the filter module holds every kernel row and every
batch-engine row to the interpreted pipeline on the same mask, and the
differential suites hold both to the naive
:class:`~repro.core.policy.PolicyInterpreter`.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro import obs
from repro.core.operators import BinaryOp, RelOp
from repro.core.policy import (
    Binary,
    Conditional,
    Policy,
    TableRef,
    Unary,
    fold,
    postorder,
    stateless_blockers,
)
from repro.core.smbm import SMBM
from repro.errors import ConfigurationError

__all__ = ["PlanCodegen", "generate_plan_source", "plan_hash_of"]


#: exec'd namespaces keyed by plan hash: each distinct plan shape is
#: generated and compiled exactly once per process, however many modules
#: (or benchmark sweeps) instantiate it.
_SOURCE_CACHE: dict[str, dict] = {}


def _canonical(policy: Policy) -> tuple[str, tuple[RelOp, ...]]:
    """Canonical DAG serialization + the plan's relational-operator table.

    Node identity (sharing) is captured through post-order ordinals, so
    ``union(p, p)`` of one shared predicate and ``union(p1, p2)`` of two
    structurally equal predicates serialize differently — they are
    different plans (one evaluation vs two).
    """
    order = postorder(policy.root)
    ordinal = {node.node_id: i for i, node in enumerate(order)}
    relops: list[RelOp] = []
    tokens: list[str] = []
    for node in order:
        if isinstance(node, TableRef):
            tokens.append(f"T({node.input_index})")
        elif isinstance(node, Unary):
            cfg = node.config
            rel = ""
            if cfg.rel_op is not None:
                rel = f",{cfg.rel_op.value}"
                if cfg.rel_op not in relops:
                    relops.append(cfg.rel_op)
            tokens.append(
                f"U({cfg.opcode.value},k={cfg.k},a={cfg.attr!r}{rel},"
                f"v={cfg.val},{ordinal[node.child.node_id]})"
            )
        elif isinstance(node, Binary):
            tokens.append(
                f"B({node.opcode.value},c={node.choice},"
                f"{ordinal[node.left.node_id]},{ordinal[node.right.node_id]})"
            )
        elif isinstance(node, Conditional):
            tokens.append(
                f"C({ordinal[node.primary.node_id]},"
                f"{ordinal[node.fallback.node_id]})"
            )
        else:  # pragma: no cover - exhaustive over node types
            raise ConfigurationError(f"unknown node type {type(node)!r}")
    return ";".join(tokens), tuple(relops)


def plan_hash_of(policy: Policy) -> str:
    """The plan hash: a stable digest of the canonical DAG serialization."""
    canon, _relops = _canonical(policy)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


class _ScalarEmitter:
    """Fold domain whose values are kernel variable names: each operator
    appends one line of straight-line int-mask code to :attr:`body`, and
    whatever is constant per table version to :attr:`preamble`."""

    _SYMBOL = {
        BinaryOp.UNION: "|",
        BinaryOp.INTERSECTION: "&",
        BinaryOp.DIFFERENCE: "& ~",
    }

    def __init__(self, relops: tuple[RelOp, ...]):
        self._relops = relops
        self.preamble: list[str] = []
        self.body: list[str] = []

    def _const(self, expr: str) -> str:
        var = f"c{len(self.preamble)}"
        self.preamble.append(f"{var} = {expr}")
        return var

    def _emit(self, expr: str) -> str:
        var = f"v{len(self.body)}"
        self.body.append(f"{var} = {expr}")
        return var

    def table(self) -> str:
        return "t"

    def predicate(self, child: str, attr: str, rel_op: RelOp, val: int) -> str:
        sat = self._const(
            f"smbm.metric_index({attr!r}).predicate_mask("
            f"RELOPS[{self._relops.index(rel_op)}], {val}, full)"
        )
        return self._emit(f"{child} & {sat}")

    def select(self, child: str, attr: str, k: int, largest: bool) -> str:
        select = self._const(f"smbm.metric_index({attr!r}).select_mask")
        return self._emit(f"{select}({child}, {k}, {largest})")

    def binary(self, op: BinaryOp, left: str, right: str) -> str:
        return self._emit(f"{left} {self._SYMBOL[op]} {right}")

    def conditional(self, primary: str, fallback: str) -> str:
        return self._emit(f"{primary} if {primary} else {fallback}")


def generate_plan_source(policy: Policy) -> tuple[str, str, tuple[RelOp, ...]]:
    """Emit the plan's specialized source.

    Returns ``(source, plan_hash, relops)``; ``relops`` is the table the
    generated code indexes as ``RELOPS[j]`` (enum members cannot be
    spelled as literals).  The source is capacity-independent: everything
    table-shaped is resolved inside ``specialize`` at run time.
    """
    canon, relops = _canonical(policy)
    digest = hashlib.sha256(canon.encode()).hexdigest()[:16]
    emitter = _ScalarEmitter(relops)
    root = fold(policy, emitter)
    # The header names only the plan hash: equal plans must emit
    # byte-identical source (the module-wide cache is keyed on the hash,
    # and the policy's display name is metadata, not plan content).
    lines = [f"# plan {digest}", "", "def specialize(smbm):",
             "    full = (1 << smbm.capacity) - 1"]
    lines += ["    " + line for line in emitter.preamble]
    lines.append("    def kernel(t):")
    lines += ["        " + line for line in emitter.body]
    lines += [f"        return {root}", "    return kernel"]
    return "\n".join(lines) + "\n", digest, relops


class PlanCodegen:
    """The codegen tier of one policy.

    A lowering of the policy alone — no compilation, placement or Cell
    enters it — so it is built when the policy changes and survives every
    fail-around recompile.  Construction is the eligibility gate: a policy
    :func:`~repro.core.policy.stateless_blockers` objects to (stateful
    operators, feedback registers — the TH012 blockers a policy can
    carry) raises :class:`ConfigurationError` naming them.
    """

    def __init__(self, policy: Policy):
        blockers = stateless_blockers(policy)
        if blockers:
            raise ConfigurationError(
                f"policy {policy.name!r} is not codegen-eligible (TH012): "
                + "; ".join(blockers)
            )
        self._policy = policy
        source, digest, relops = generate_plan_source(policy)
        self._source = source
        self._hash = digest
        namespace = _SOURCE_CACHE.get(digest)
        if namespace is None:
            namespace = {"__builtins__": {}, "RELOPS": relops}
            exec(compile(source, f"<plan {digest}>", "exec"), namespace)
            _SOURCE_CACHE[digest] = namespace
        self._specialize = namespace["specialize"]
        # Single-entry version-keyed kernel cache: the SMBM version only
        # moves forward, so older kernels can never become valid again —
        # same invalidation point as the FilterModule memo.
        self._scalar_version: int | None = None
        self._scalar_kernel = None
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
            help="evaluations that had to respecialize (table version moved)",
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

    def invalidate(self) -> None:
        """Drop the specialized kernel unconditionally.

        The version-keyed cache assumes the SMBM version only moves
        forward; a checkpoint *restore* can move it backward (or land on a
        reused version number over different contents), so the serving
        layer's cache-reset path calls this alongside dropping the scalar
        memo.
        """
        self._scalar_version = None
        self._scalar_kernel = None

    # -- scalar lane ---------------------------------------------------------------

    def kernel(self, smbm: SMBM):
        """The flat ``kernel(mask) -> mask`` closure for the current table
        version, specializing if the version moved."""
        version = smbm.version
        if version == self._scalar_version:
            self._hits += 1
        else:
            self._scalar_kernel = self._specialize(smbm)
            self._scalar_version = version
            self._specializations += 1
            self._misses += 1
        return self._scalar_kernel

    def evaluate(self, smbm: SMBM, mask: int | None = None) -> int:
        """One packet's policy output over ``table ∩ mask`` (``None`` = the
        full table) as a raw int mask."""
        present = smbm.id_mask()
        return self.kernel(smbm)(present if mask is None else present & mask)

    # -- batch lane ----------------------------------------------------------------

    def evaluate_masks(self, smbm: SMBM, masks: Sequence[int]) -> list[int]:
        """One output mask per input mask (inputs are intersected with the
        table's presence mask, like the interpreted batch tier): the flat
        scalar kernel, row by row."""
        if not masks:
            return []
        kern = self.kernel(smbm)
        present = smbm.id_mask()
        return [kern(present & m) for m in masks]

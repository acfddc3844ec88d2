"""Filter policy abstraction (section 4).

A policy is a DAG of filter operator nodes over the resource table:

* :class:`TableRef` — a pipeline input line: the full resource table, or
  (``input_index=i``) a feedback register the policy itself binds
  (:attr:`Policy.feedback`);
* :class:`Unary` — one unary operator (section 4.1.1), possibly as a
  *parallel chain* of K identical operators (section 4.2.1) when ``k > 1``;
* :class:`Binary` — one binary operator merging two sub-policies
  (section 4.1.2);
* :class:`Conditional` — the section 4.2.3 pattern
  ``if primary's output is non-empty then primary else fallback``,
  realised as a MUX in the RMT stage following the filter module.  Every
  conditional policy in the paper's evaluation (Table 5) has this
  empty-check shape.

The module-level helpers (:func:`predicate`, :func:`min_of`, …) build nodes
with a fluent feel::

    servers = TableRef()
    eligible = intersection(
        intersection(predicate(servers, "cpu", RelOp.LT, 70),
                     predicate(servers, "mem", RelOp.GT, 1024)),
        predicate(servers, "bw", RelOp.GT, 2000),
    )
    policy = Policy(Conditional(random_pick(eligible), random_pick(servers)))

:class:`PolicyInterpreter` evaluates a policy directly over an SMBM — the
one naive truth: a DAG walk whose stateless operators are the paper's
temp-list walk (:mod:`repro.core.ufpu_reference`), sharing no compiler,
Cell, mask engine or :func:`fold` with what is differentially tested
against it (the compiled pipeline, every ``fold`` lowering, the sanitizer's
and the self-test's fast path).

:func:`fold` is the one definition of the *stateless* operator semantics
every lowering shares: a single :func:`postorder` pass that hands each
operator to a small *domain* object (a column of int masks, a source
emitter).  :func:`stateless_blockers` decides which
policies it may be applied to.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.core.bitvector import BitVector
from repro.core.kufpu import KUFPU, KUnaryConfig
from repro.core.operators import BinaryOp, RelOp, UnaryOp
from repro.core.smbm import SMBM
from repro.core.ufpu_reference import reference_unary
from repro.errors import ConfigurationError

__all__ = [
    "Node",
    "TableRef",
    "Unary",
    "ParallelChain",
    "Binary",
    "Conditional",
    "Policy",
    "PolicyInterpreter",
    "postorder",
    "preorder_paths",
    "fold",
    "stateless_blockers",
    "predicate",
    "min_of",
    "max_of",
    "random_pick",
    "round_robin",
    "union",
    "intersection",
    "difference",
]

_node_ids = itertools.count()


@dataclass(frozen=True, eq=False)
class Node:
    """Base class for policy DAG nodes.

    Nodes use identity equality: the same node object used twice is shared
    fan-out, two structurally equal nodes are independent operators.
    """

    node_id: int = field(default_factory=lambda: next(_node_ids), init=False)

    def children(self) -> tuple["Node", ...]:
        return ()


@dataclass(frozen=True, eq=False)
class TableRef(Node):
    """A pipeline input line.

    With the default ``input_index=None`` the line carries the full resource
    table (the common case).  An explicit ``input_index`` names the pipeline
    input a :attr:`Policy.feedback` binding drives — e.g. DRILL's "m least
    loaded samples from the last time slot" (Table 5).
    """

    input_index: int | None = None

    def describe(self) -> str:
        if self.input_index is None:
            return "table"
        return f"input[{self.input_index}]"


@dataclass(frozen=True, eq=False)
class Unary(Node):
    """A unary operator (or a parallel chain of K of them) over a sub-policy."""

    config: KUnaryConfig = field(default_factory=KUnaryConfig.no_op)
    child: Node = field(default_factory=TableRef)

    def children(self) -> tuple[Node, ...]:
        return (self.child,)

    def describe(self) -> str:
        return self.config.describe()


class ParallelChain(Unary):
    """Alias emphasising a K>1 parallel chain (section 4.2.1)."""


@dataclass(frozen=True, eq=False)
class Binary(Node):
    """A binary operator merging two sub-policies."""

    opcode: BinaryOp = BinaryOp.UNION
    left: Node = field(default_factory=TableRef)
    right: Node = field(default_factory=TableRef)
    choice: int | None = None

    def __post_init__(self) -> None:
        if self.opcode.needs_choice and self.choice not in (0, 1):
            raise ConfigurationError("no-op Binary requires choice in {0, 1}")

    def children(self) -> tuple[Node, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        return str(self.opcode)


@dataclass(frozen=True, eq=False)
class Conditional(Node):
    """``primary`` if its output is non-empty, else ``fallback`` (section 4.2.3)."""

    primary: Node = field(default_factory=TableRef)
    fallback: Node = field(default_factory=TableRef)

    def children(self) -> tuple[Node, ...]:
        return (self.primary, self.fallback)

    def describe(self) -> str:
        return "if-non-empty-else"


@dataclass(frozen=True, eq=False)
class Policy:
    """A complete filter policy: a root node plus a human-readable name.

    A :class:`Conditional` may appear only at the root — its MUX lives in
    the RMT stage after the filter module, so it cannot feed further filter
    operators (section 4.2.3).

    ``feedback`` is Table 5's arrow as data: ``{i: node}`` says input line
    ``i`` of packet *p+1* carries the value ``node`` had on packet *p* —
    all zeros before the first packet and after ``reset_state()``.  Every
    ``TableRef(input_index=i)`` must be bound, every binding read, and
    every bound node part of the DAG.  Each evaluator
    (:class:`PolicyInterpreter`, a compiled policy) keeps the register
    beside its stateful units, so a policy with feedback is stateful.
    """

    root: Node = field(default_factory=TableRef)
    name: str = "policy"
    feedback: Mapping[int, Node] = field(default_factory=dict)

    def __post_init__(self) -> None:
        nodes = postorder(self.root)
        for node in nodes:
            if any(isinstance(c, Conditional) for c in node.children()):
                raise ConfigurationError(
                    "Conditional nodes are only supported at the policy root: "
                    "the selecting MUX is implemented in the RMT stage after "
                    "the filter module (section 4.2.3)"
                )
        read = {node.input_index for node in nodes
                if isinstance(node, TableRef) and node.input_index is not None}
        if read != set(self.feedback):
            raise ConfigurationError(
                f"policy {self.name!r} reads input lines {sorted(read)} but "
                f"its feedback binds {list(self.feedback)}: every "
                "input[i] needs exactly one binding"
            )
        in_dag = {node.node_id for node in nodes}
        for index, bound in self.feedback.items():
            if bound.node_id not in in_dag:
                raise ConfigurationError(
                    f"feedback into input[{index}] is bound to a node "
                    f"outside policy {self.name!r}'s DAG"
                )


# -- fluent constructors ----------------------------------------------------------


def predicate(child: Node, attr: str, rel_op: RelOp | str, val: int,
              k: int = 1) -> Unary:
    """``predicate(table, attrX rel_op val)`` — section 4.1.1 operator 2."""
    op = rel_op if isinstance(rel_op, RelOp) else RelOp(rel_op)
    return Unary(
        config=KUnaryConfig(UnaryOp.PREDICATE, k=k, attr=attr, rel_op=op, val=val),
        child=child,
    )


def min_of(child: Node, attr: str, k: int = 1) -> Unary:
    """``min(table, attrX)`` — with ``k > 1``, the K smallest entries."""
    return Unary(config=KUnaryConfig(UnaryOp.MIN, k=k, attr=attr), child=child)


def max_of(child: Node, attr: str, k: int = 1) -> Unary:
    """``max(table, attrX)`` — with ``k > 1``, the K largest entries."""
    return Unary(config=KUnaryConfig(UnaryOp.MAX, k=k, attr=attr), child=child)


def random_pick(child: Node, k: int = 1) -> Unary:
    """``random(table)`` — with ``k > 1``, K distinct uniform picks."""
    return Unary(config=KUnaryConfig(UnaryOp.RANDOM, k=k), child=child)


def round_robin(child: Node, attr: str) -> Unary:
    """``round-robin(table, attrX)`` — weighted round-robin selection."""
    return Unary(config=KUnaryConfig(UnaryOp.ROUND_ROBIN, attr=attr), child=child)


def union(left: Node, right: Node) -> Binary:
    return Binary(opcode=BinaryOp.UNION, left=left, right=right)


def intersection(left: Node, right: Node) -> Binary:
    return Binary(opcode=BinaryOp.INTERSECTION, left=left, right=right)


def difference(left: Node, right: Node) -> Binary:
    return Binary(opcode=BinaryOp.DIFFERENCE, left=left, right=right)


# -- the stateless walk: one traversal, one operator dispatch ------------------------


def postorder(root: Node) -> list[Node]:
    """Every node reachable from ``root`` exactly once, children before
    parents, left before right.  A shared sub-DAG (the same node object
    reachable twice) appears a single time, at its first visit."""
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node.node_id not in seen:
            seen.add(node.node_id)
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children()))
    return order


def preorder_paths(root: Node) -> Iterator[tuple[Node, tuple[int, ...]]]:
    """Every node reachable from ``root`` exactly once, parents before
    children, left before right, each with the child-index path of that
    first visit — the coordinates a diagnostic names a node by.  A shared
    sub-DAG keeps its first pre-order path."""
    seen: set[int] = set()
    stack: list[tuple[Node, tuple[int, ...]]] = [(root, ())]
    while stack:
        node, path = stack.pop()
        if node.node_id in seen:
            continue
        seen.add(node.node_id)
        yield node, path
        stack.extend(reversed(
            [(child, path + (i,)) for i, child in enumerate(node.children())]
        ))


def stateless_blockers(policy: Policy) -> list[str]:
    """Why ``policy``'s output is *not* a pure function of the table
    contents (and a candidate mask), one human-readable reason per
    stateful operator and per feedback register; empty when :func:`fold`
    may evaluate it.

    The single definition of "stateless" behind the version memo
    (``CompiledPolicy.stateless``), the batched evaluator, the codegen
    tier, the TH012 lint and the filter module's engine choice.
    """
    blockers: list[str] = []
    for node in postorder(policy.root):
        if isinstance(node, Unary) and node.config.opcode.is_stateful:
            blockers.append(
                f"stateful operator {node.config.describe()} keeps "
                "cross-packet state, so its output advances per packet, "
                "not per table version"
            )
    for index in sorted(policy.feedback):
        blockers.append(
            f"input[{index}] is a feedback register carrying the previous "
            "packet's value, so it changes per packet, not per table version"
        )
    return blockers


def fold(policy: Policy, domain: Any) -> Any:
    """The value of a stateless ``policy`` in ``domain``.

    A domain is a lowering: it supplies the value of the table and of each
    operator over already-computed operand values, and nothing about
    traversal, sharing or memoisation —

    * ``table()``: the (candidate-restricted) resource table;
    * ``predicate(child, attr, rel_op, val)``: the entries of ``child``
      whose ``attr`` satisfies ``rel_op val``;
    * ``select(child, attr, k, largest)``: the ``k`` entries of ``child``
      with the smallest (``largest``: the largest) ``attr`` — Equation 1;
    * ``binary(op, left, right)``: union, intersection or difference
      (never ``NO_OP``);
    * ``conditional(primary, fallback)``: ``primary`` where non-empty,
      else ``fallback`` (section 4.2.3).

    Each node is computed once, after its operands, so shared fan-out
    costs one evaluation; pass-through nodes (``NO_OP`` unary, ``NO_OP``
    binary with its ``choice``) alias their operand without consulting
    the domain.  Legal exactly when :func:`stateless_blockers` is empty.
    """
    values: dict[int, Any] = {}
    for node in postorder(policy.root):
        if isinstance(node, TableRef):
            if node.input_index is not None:
                raise ConfigurationError(
                    f"cannot fold {node.describe()}: a feedback register "
                    "changes per packet"
                )
            out = domain.table()
        elif isinstance(node, Unary):
            child = values[node.child.node_id]
            cfg = node.config
            if cfg.opcode is UnaryOp.NO_OP:
                out = child
            elif cfg.opcode is UnaryOp.PREDICATE:
                out = domain.predicate(child, cfg.attr, cfg.rel_op, cfg.val)
            elif cfg.opcode in (UnaryOp.MIN, UnaryOp.MAX):
                out = domain.select(child, cfg.attr, cfg.k,
                                    cfg.opcode is UnaryOp.MAX)
            else:
                raise ConfigurationError(
                    f"cannot fold stateful operator {cfg.describe()}"
                )
        elif isinstance(node, Binary):
            left = values[node.left.node_id]
            right = values[node.right.node_id]
            if node.opcode is BinaryOp.NO_OP:
                out = left if node.choice == 0 else right
            else:
                out = domain.binary(node.opcode, left, right)
        elif isinstance(node, Conditional):
            out = domain.conditional(values[node.primary.node_id],
                                     values[node.fallback.node_id])
        else:  # pragma: no cover - exhaustive over node types
            raise ConfigurationError(f"unknown node type {type(node)!r}")
        values[node.node_id] = out
    return values[policy.root.node_id]


# -- reference interpreter ----------------------------------------------------------


class PolicyInterpreter:
    """Direct evaluation of a policy DAG over an SMBM: the naive reference.

    Stateless unary nodes are Equation 1 over the O(N) temp-list operators
    (:func:`~repro.core.ufpu_reference.reference_unary`), which read the
    table's sorted lists and nothing else.  Stateful operators (round-robin,
    random) have one implementation, the hardware unit's, and keep per-node
    state across calls exactly as it does; beside them sits the
    interpreter's own copy of each :attr:`Policy.feedback` register,
    written after every packet.  Shared sub-DAGs (the same node object
    reachable twice) are evaluated once per packet.
    """

    def __init__(self, policy: Policy, *, lfsr_seed: int = 1):
        self._policy = policy
        self._units: dict[int, KUFPU] = {}
        self._registers: dict[int, int] = {}
        seed = lfsr_seed
        # Pre-order, each node at its first visit only (a shared sub-DAG
        # is not walked again per path): every Unary node, stateful or
        # not, takes its slot of the seed space, so a node's LFSR stream
        # depends only on where it sits in the DAG.
        for node, _ in preorder_paths(policy.root):
            if isinstance(node, Unary):
                length = max(1, node.config.k)
                if node.config.opcode.is_stateful:
                    self._units[node.node_id] = KUFPU(
                        length, node.config, lfsr_seed=seed
                    )
                seed += length + 1

    @property
    def policy(self) -> Policy:
        return self._policy

    def reset_state(self) -> None:
        for unit in self._units.values():
            unit.reset_state()
        self._registers.clear()

    def evaluate(
        self, smbm: SMBM, *, mask: int | None = None,
        record: dict[int, BitVector] | None = None,
    ) -> BitVector:
        """One packet's policy evaluation; returns the output table.

        ``mask`` is the packet's ``META_FILTER_INPUT`` candidate set: the
        table the policy sees is ``table ∩ mask`` (``None`` = the full
        table); a feedback line is not a table line and is left alone.
        ``record``, when
        given, is used as the per-node memo and left filled with every
        evaluated node's output keyed by ``node_id`` — the concrete witness
        the semantic soundness suite checks abstract regions against (nodes
        short-circuited away, e.g. a Conditional's untaken arm, stay
        absent).
        """
        cache: dict[int, BitVector] = {} if record is None else record

        def walk(node: Node) -> BitVector:
            if node.node_id in cache:
                return cache[node.node_id]
            if isinstance(node, TableRef):
                if node.input_index is None:
                    present = smbm.id_mask()
                    out = BitVector.from_int(
                        smbm.capacity,
                        present if mask is None else present & mask,
                    )
                else:
                    out = BitVector.from_int(
                        smbm.capacity,
                        self._registers.get(node.input_index, 0),
                    )
            elif isinstance(node, Unary):
                unit = self._units.get(node.node_id)
                child = walk(node.child)
                out = (reference_unary(node.config, child, smbm)
                       if unit is None else unit.evaluate(child, smbm))
            elif isinstance(node, Binary):
                left = walk(node.left)
                right = walk(node.right)
                if node.opcode is BinaryOp.NO_OP:
                    out = left if node.choice == 0 else right
                elif node.opcode is BinaryOp.UNION:
                    out = left | right
                elif node.opcode is BinaryOp.INTERSECTION:
                    out = left & right
                else:
                    out = left - right
            elif isinstance(node, Conditional):
                primary = walk(node.primary)
                out = primary if not primary.is_empty() else walk(node.fallback)
            else:  # pragma: no cover
                raise ConfigurationError(f"unknown node type {type(node)!r}")
            cache[node.node_id] = out
            return out

        out = walk(self._policy.root)
        # Every register is read before any is written: one packet boundary.
        self._registers = {
            index: walk(bound).value
            for index, bound in self._policy.feedback.items()
        }
        return out

    def select(self, smbm: SMBM) -> int | None:
        """Evaluate and return the single selected resource id, if exactly one."""
        out = self.evaluate(smbm)
        if out.popcount() != 1:
            return None
        return out.first_set()

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

:func:`fold` is the one walk of the node algebra: a single
:func:`postorder` pass that hands each operator to a small *domain*
object.  Every evaluator and analysis of a policy is a domain — the
naive interpreter's int masks, the kernel's source emitter
(:mod:`repro.engine.codegen`), a column of int masks
(:mod:`repro.engine.columnar`) and the interval facts of
:mod:`repro.analysis.symbolic`.  :func:`stateless_blockers` decides
which policies a domain without stateful units may fold, and which
outputs may be memoised per table version.  :class:`UnitState` is a
policy's cross-packet state and its one seed-slot rule.

:class:`PolicyInterpreter` is the naive truth, the ``fold`` domain the
compiled pipeline, the other domains, the sanitizer and the self-test are
differentially tested against.  Its operators share no code with what
they check: stateless unaries are the paper's temp-list walk
(:mod:`repro.core.ufpu_reference`), with no compiler, Cell or mask
engine.  The dispatch it does share; the independent side for the
dispatch is the Cells, which place and evaluate the same DAG without
``fold`` (:mod:`repro.core.compiler`).

:func:`policy_to_dict` / :func:`policy_from_dict` are the one canonical
document of a policy DAG: checkpoints and the WAL persist it, and the
codegen plan hash is its digest.
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
from repro.errors import CheckpointError, ConfigurationError

__all__ = [
    "Node",
    "TableRef",
    "Unary",
    "Binary",
    "Conditional",
    "Policy",
    "PolicyInterpreter",
    "UnitState",
    "postorder",
    "preorder_paths",
    "fold",
    "stateless_blockers",
    "policy_to_dict",
    "policy_from_dict",
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


# -- the policy walk: one traversal, one operator dispatch ---------------------------


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
    stateful operator and per feedback register; empty when a domain
    without stateful units may :func:`fold` it.

    The single definition of "stateless" behind the version memo
    (``CompiledPolicy.stateless``): a filter module memoises exactly when
    this is empty.  It does not decide lowering: the codegen kernel steps
    the units and registers a stateful policy needs.
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


def fold(policy: Policy, domain: Any,
         values: dict[int, Any] | None = None) -> Any:
    """The value of ``policy`` in ``domain``: the one walk of the node
    algebra.

    A domain supplies the value of each node over its already-computed
    operand values, and nothing about traversal, sharing or memoisation.
    Every hook takes the node first, so the domain reads the operator's
    parameters off it (``node.config``, ``node.opcode``) and keys
    per-node state (a unit, a diagnostic path) by ``node.node_id``:

    * ``table(node)``: the (candidate-restricted) resource table;
    * ``feedback(node)``: the register of input line ``node.input_index``
      (:attr:`Policy.feedback`);
    * ``predicate(node, child)``: the entries of ``child`` satisfying the
      node's ``attr rel_op val``;
    * ``select(node, child)``: min or max, Equation 1's ``k`` rounds;
    * ``unit(node, child)``: a round-robin or random unit, stepped once;
    * ``binary(node, left, right)``: union, intersection or difference
      (never ``NO_OP``);
    * ``conditional(node, primary, fallback)``: ``primary`` where
      non-empty, else ``fallback`` (section 4.2.3).

    One :func:`postorder` pass: each node is computed once, after its
    operands, so shared fan-out costs one evaluation and both arms of a
    Conditional are computed before its MUX, as in hardware.  Pass-through
    nodes (``NO_OP`` unary, ``NO_OP`` binary with its ``choice``) alias
    their operand without consulting the domain.  ``values``, when given,
    is left holding every node's value keyed by ``node_id``.  A domain
    without ``unit`` and ``feedback`` folds exactly the policies
    :func:`stateless_blockers` clears.
    """
    out: dict[int, Any] = {} if values is None else values
    for node in postorder(policy.root):
        if isinstance(node, TableRef):
            value = (domain.table(node) if node.input_index is None
                     else domain.feedback(node))
        elif isinstance(node, Unary):
            child = out[node.child.node_id]
            opcode = node.config.opcode
            if opcode is UnaryOp.NO_OP:
                value = child
            elif opcode is UnaryOp.PREDICATE:
                value = domain.predicate(node, child)
            elif opcode.is_stateful:
                value = domain.unit(node, child)
            else:
                value = domain.select(node, child)
        elif isinstance(node, Binary):
            left = out[node.left.node_id]
            right = out[node.right.node_id]
            if node.opcode is BinaryOp.NO_OP:
                value = left if node.choice == 0 else right
            else:
                value = domain.binary(node, left, right)
        elif isinstance(node, Conditional):
            value = domain.conditional(node, out[node.primary.node_id],
                                       out[node.fallback.node_id])
        else:  # pragma: no cover - exhaustive over node types
            raise ConfigurationError(f"unknown node type {type(node)!r}")
        out[node.node_id] = value
    return out[policy.root.node_id]


# -- the policy document ------------------------------------------------------------


def policy_to_dict(policy: Policy) -> dict[str, Any]:
    """Serialize a policy DAG to a JSON-safe document: the one canonical
    spelling of a policy, which checkpoints and the WAL persist and whose
    digest (less ``name``) is the codegen plan hash.

    Nodes are emitted in deterministic post-order with local indices, so
    shared sub-DAGs (the same node object reachable twice — shared fan-out)
    survive the round trip as shared references, not duplicated operators:
    structure, not just semantics, is preserved.  ``feedback`` (input line
    -> index of the bound node) is present only when the policy binds one,
    so a policy without feedback keeps the bytes it always had.
    """
    order = postorder(policy.root)
    index = {node.node_id: i for i, node in enumerate(order)}
    nodes: list[dict[str, Any]] = []
    for node in order:
        children = [index[child.node_id] for child in node.children()]
        if isinstance(node, TableRef):
            doc: dict[str, Any] = {"type": "table", "input": node.input_index}
        elif isinstance(node, Unary):
            cfg = node.config
            doc = {
                "type": "unary",
                "op": cfg.opcode.value,
                "k": cfg.k,
                "attr": cfg.attr,
                "rel": None if cfg.rel_op is None else cfg.rel_op.value,
                "val": cfg.val,
                "child": children[0],
            }
        elif isinstance(node, Binary):
            doc = {
                "type": "binary",
                "op": node.opcode.value,
                "left": children[0],
                "right": children[1],
                "choice": node.choice,
            }
        elif isinstance(node, Conditional):
            doc = {
                "type": "conditional",
                "primary": children[0],
                "fallback": children[1],
            }
        else:  # pragma: no cover - exhaustive over the node algebra
            raise ConfigurationError(f"unserializable node type {type(node)!r}")
        nodes.append(doc)
    doc = {"name": policy.name, "root": len(nodes) - 1, "nodes": nodes}
    if policy.feedback:
        doc["feedback"] = {str(line): index[bound.node_id]
                           for line, bound in policy.feedback.items()}
    return doc


def policy_from_dict(doc: Mapping[str, Any]) -> Policy:
    """Rebuild a policy from :func:`policy_to_dict` output."""
    try:
        raw_nodes = doc["nodes"]
        root_index = doc["root"]
        name = doc["name"]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed policy document: {exc!r}") from None
    built: list[Node] = []

    def ref(i: object) -> Node:
        if not isinstance(i, int) or not 0 <= i < len(built):
            raise CheckpointError(
                f"policy document node reference {i!r} is not a prior node"
            )
        return built[i]

    try:
        for raw in raw_nodes:
            kind = raw["type"]
            if kind == "table":
                node: Node = TableRef(input_index=raw["input"])
            elif kind == "unary":
                node = Unary(
                    config=KUnaryConfig(
                        UnaryOp(raw["op"]),
                        k=raw["k"],
                        attr=raw["attr"],
                        rel_op=None if raw["rel"] is None else RelOp(raw["rel"]),
                        val=raw["val"],
                    ),
                    child=ref(raw["child"]),
                )
            elif kind == "binary":
                node = Binary(
                    opcode=BinaryOp(raw["op"]),
                    left=ref(raw["left"]),
                    right=ref(raw["right"]),
                    choice=raw["choice"],
                )
            elif kind == "conditional":
                node = Conditional(
                    primary=ref(raw["primary"]), fallback=ref(raw["fallback"])
                )
            else:
                raise CheckpointError(
                    f"policy document has unknown node type {kind!r}"
                )
            built.append(node)
        feedback = {int(line): ref(i)
                    for line, i in doc.get("feedback", {}).items()}
        return Policy(ref(root_index), name=str(name), feedback=feedback)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError,
            ConfigurationError) as exc:
        raise CheckpointError(f"malformed policy document: {exc!r}") from None


# -- cross-packet state -------------------------------------------------------------


class UnitState:
    """A policy's cross-packet state: one K-UFPU per stateful node, keyed
    by ``node_id`` in pre-order, and the :attr:`Policy.feedback`
    registers, keyed by input line.

    :meth:`seeded` is the one seed-slot rule.  Pre-order, each node at its
    first visit only (a shared sub-DAG is not walked again per path),
    every Unary node, stateful or not, takes ``max(1, k) + 1`` slots of
    the seed space, so a unit's LFSR stream depends only on ``lfsr_seed``
    and where the unit sits in the DAG: not on the Cells it is placed on,
    nor on the tenants beside it.  The interpreter, the compiled Cells and
    a filter module's kernel all start from it.

    :meth:`export` and :meth:`restore` are the one spelling of the state:
    ``{"units": [...], "feedback": [[line, mask], ...]}``, the units'
    registers (:meth:`KUFPU.state <repro.core.kufpu.KUFPU.state>`) in
    pre-order and the registers by line, JSON-safe.  Both sides of a
    restore must hold the same policy's units.
    """

    def __init__(self, units: dict[int, KUFPU]) -> None:
        self.units = units
        self.registers: dict[int, int] = {}

    @classmethod
    def seeded(cls, policy: Policy, lfsr_seed: int = 1) -> UnitState:
        units: dict[int, KUFPU] = {}
        seed = lfsr_seed
        for node, _ in preorder_paths(policy.root):
            if isinstance(node, Unary):
                length = max(1, node.config.k)
                if node.config.opcode.is_stateful:
                    units[node.node_id] = KUFPU(length, node.config,
                                                lfsr_seed=seed)
                seed += length + 1
        return cls(units)

    def reset(self) -> None:
        """Clear the round-robin registers and the feedback registers."""
        for unit in self.units.values():
            unit.reset_state()
        self.registers.clear()

    def export(self) -> dict[str, list]:
        return {
            "units": [unit.state() for unit in self.units.values()],
            "feedback": [[line, self.registers[line]]
                         for line in sorted(self.registers)],
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        """Load :meth:`export` output in place: whatever closes over the
        units or the registers sees the restored state."""
        units = state["units"]
        if len(units) != len(self.units):
            raise ConfigurationError(
                f"unit state names {len(units)} units, the policy has "
                f"{len(self.units)}"
            )
        for unit, registers in zip(self.units.values(), units):
            unit.load(registers)
        self.registers.clear()
        self.registers.update(
            (int(line), int(mask)) for line, mask in state["feedback"])


# -- reference interpreter ----------------------------------------------------------


class _NaiveDomain:
    """:class:`PolicyInterpreter`'s :func:`fold` domain for one packet.

    A value is a raw id-mask int.  Stateless unaries are the temp-list
    walk (:func:`~repro.core.ufpu_reference.reference_unary`), stateful
    ones the interpreter's units, feedback lines its registers.
    """

    def __init__(self, smbm: SMBM, table: int, units: Mapping[int, KUFPU],
                 registers: Mapping[int, int]) -> None:
        self._smbm = smbm
        self._table = table
        self._units = units
        self._registers = registers

    def table(self, node: TableRef) -> int:
        return self._table

    def feedback(self, node: TableRef) -> int:
        return self._registers.get(node.input_index, 0)

    def predicate(self, node: Unary, child: int) -> int:
        return reference_unary(node.config, child, self._smbm)

    select = predicate

    def unit(self, node: Unary, child: int) -> int:
        return self._units[node.node_id].evaluate(child, self._smbm)

    def binary(self, node: Binary, left: int, right: int) -> int:
        if node.opcode is BinaryOp.UNION:
            return left | right
        if node.opcode is BinaryOp.INTERSECTION:
            return left & right
        return left & ~right

    def conditional(self, node: Conditional, primary: int,
                    fallback: int) -> int:
        return primary if primary else fallback


class PolicyInterpreter:
    """Direct evaluation of a policy DAG over an SMBM: the naive reference.

    A packet is one :func:`fold` in the naive domain.  Stateless unary
    nodes are Equation 1 over the O(N) temp-list operators
    (:func:`~repro.core.ufpu_reference.reference_unary`), which read the
    table's sorted lists and nothing else.  Stateful operators
    (round-robin, random) have one implementation, the hardware unit's:
    the interpreter keeps its own :class:`UnitState` — one unit per node,
    seeded by its pre-order slot, stepped as the Cells and the kernel step
    theirs, the units of a Conditional's untaken arm included — and its
    own copy of each :attr:`Policy.feedback` register, written after every
    packet.
    """

    def __init__(self, policy: Policy, *, lfsr_seed: int = 1):
        self._policy = policy
        self._state = UnitState.seeded(policy, lfsr_seed)

    @property
    def policy(self) -> Policy:
        return self._policy

    def reset_state(self) -> None:
        self._state.reset()

    def evaluate(
        self, smbm: SMBM, *, mask: int | None = None,
        record: dict[int, int] | None = None,
    ) -> BitVector:
        """One packet's policy evaluation; returns the output table.

        ``mask`` is the packet's ``META_FILTER_INPUT`` candidate set: the
        table the policy sees is ``table ∩ mask`` (``None`` = the full
        table); a feedback line is not a table line and is left alone.
        The pass itself runs on raw id-mask ints.  ``record``, when
        given, is the per-node output map and is left filled with every
        evaluated node's output mask keyed by ``node_id`` — the concrete
        witness the semantic soundness suite checks abstract regions
        against.  Every node reachable from the root or a feedback binding
        is recorded, a Conditional's untaken arm included: both arms are
        computed before the MUX picks one.
        """
        present = smbm.id_mask()
        table = present if mask is None else present & mask
        out: dict[int, int] = {} if record is None else record
        state = self._state
        root = fold(self._policy,
                    _NaiveDomain(smbm, table, state.units, state.registers),
                    out)
        # Every bound node is in the root's DAG (Policy checks), so the
        # fold computed every register's next value.  Every register was
        # read before any is written: one packet boundary.
        state.registers.update({
            index: out[bound.node_id]
            for index, bound in self._policy.feedback.items()
        })
        return BitVector.from_int(smbm.capacity, root)

    def select(self, smbm: SMBM) -> int | None:
        """Evaluate and return the single selected resource id, if exactly one."""
        out = self.evaluate(smbm)
        if out.popcount() != 1:
            return None
        return out.first_set()

"""Symbolic policy semantics: abstract interpretation over the policy DAG.

The structural verifier (TH001–TH016) proves a plan *fits* the pipeline;
this module proves things about what the plan *means*.  An abstract
interpreter walks the policy DAG once, propagating three facts per edge:

* **region** — a :class:`~repro.analysis.domains.Region`
  over-approximating the rows the edge can carry: any concrete output row
  must satisfy every per-metric constraint.  An empty region is a proof
  the edge never carries a row.
* **guaranteed** — an under-approximation: the edge provably carries at
  least one row whenever the resource table is non-empty (selectors
  preserve it, tautological predicates preserve it, feedback input
  lines break it).
* **full** — the edge provably carries *exactly* the whole table (only
  table references and tautological filters over them).

Regions are seeded from the stored-word width (every metric lives in
``[0, 2**STORED_WORD_BITS - 1]``) and, when a live table is supplied,
tightened to the observed per-metric value span — a live-seeded analysis
is stamped against that table version and goes stale with it.

The walk emits the semantic lint rules:

* **TH017** UnreachablePredicate — a predicate whose feasible region is
  empty: it can never fire.
* **TH018** ShadowedBranch — a :class:`~repro.core.policy.Conditional`
  arm that can never serve: the fallback when the primary is guaranteed
  non-empty, or the primary when its region is empty.
* **TH019** VacuousSetOp — an intersection that is provably empty, a
  difference that provably subtracts nothing (identity) or subtracts the
  full table (provably empty output).

The analysis is a function of the policy alone (plus the table schema),
so a :class:`~repro.switch.filter_module.FilterModule` computes it once,
when the policy is programmed, and every consumer reads that copy.  On
top of it sits one cross-policy check over *regions*, not policies:
:func:`tenant_overlap_report` flags a newcomer whose admitted match
region overlaps a sitting tenant's on shared metrics (**TH021**).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.domains import IntervalSet, Region
from repro.analysis.findings import Report
from repro.core.operators import BinaryOp, UnaryOp
from repro.core.policy import (
    Binary,
    Conditional,
    Node,
    Policy,
    TableRef,
    Unary,
    postorder,
    preorder_paths,
)
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.verifier import TableSchema
    from repro.core.smbm import SMBM

__all__ = [
    "NodeFact",
    "SemanticAnalysis",
    "analyze_policy",
    "cross_tenant_overlap",
    "tenant_overlap_report",
]


@dataclass(frozen=True)
class NodeFact:
    """What the abstract interpreter knows about one DAG edge."""

    region: Region
    guaranteed: bool
    full: bool


def _fact(region: Region, guaranteed: bool, full: bool) -> NodeFact:
    """Keep the facts mutually consistent: an empty region proves the
    edge carries nothing, so it can be neither guaranteed nor full."""
    if region.empty:
        return NodeFact(region, False, False)
    return NodeFact(region, guaranteed, full)


@dataclass(frozen=True)
class SemanticAnalysis:
    """One policy's abstract interpretation: per-node facts + findings.

    ``node_paths`` maps each node id to its first pre-order root-to-node
    child-index path — the coordinates TH017–TH019 findings carry.
    """

    policy: Policy
    report: Report
    facts: Mapping[int, NodeFact]
    node_paths: Mapping[int, tuple[int, ...]]
    root: NodeFact
    schema: "TableSchema | None" = None
    table_version: int | None = None

    @property
    def root_region(self) -> Region:
        """The admitted match region: rows the policy can possibly emit."""
        return self.root.region

    def fact_at(self, node: Node) -> NodeFact:
        try:
            return self.facts[node.node_id]
        except KeyError:
            raise ConfigurationError(
                f"node {node.describe() if hasattr(node, 'describe') else node!r} "
                f"is not part of policy {self.policy.name!r}"
            ) from None

    def unreachable_nodes(self) -> tuple[tuple[int, ...], ...]:
        """Node paths whose feasible region is empty — the targets of the
        differential soundness gate (no packet may ever land there)."""
        return tuple(
            self.node_paths[node_id]
            for node_id, fact in self.facts.items()
            if fact.region.empty
        )


class _Analyzer:
    """The abstract transfer functions over ``facts``, one per node id."""

    def __init__(self, seed: Region, report: Report,
                 paths: dict[int, tuple[int, ...]]) -> None:
        self._seed = seed
        self._report = report
        self._paths = paths
        self.facts: dict[int, NodeFact] = {}

    def visit(self, node: Node) -> None:
        """Derive ``node``'s fact from its operands', which the caller
        has visited already (children first)."""
        path = self._paths[node.node_id]
        if isinstance(node, TableRef):
            fact = self._table_ref(node)
        elif isinstance(node, Unary):
            fact = self._unary(node, path)
        elif isinstance(node, Binary):
            fact = self._binary(node, path)
        elif isinstance(node, Conditional):
            fact = self._conditional(node, path)
        else:  # pragma: no cover - exhaustive over the node kinds
            raise ConfigurationError(f"unknown node type {type(node)!r}")
        self.facts[node.node_id] = fact

    def _table_ref(self, node: TableRef) -> NodeFact:
        # A feedback line still holds rows of the *same* SMBM (the
        # register is a row mask, empty before the first packet), so
        # the seed region applies — but it may be empty at any time, so
        # neither guarantee survives.
        is_main = node.input_index is None
        return _fact(self._seed, guaranteed=is_main, full=is_main)

    def _unary(self, node: Unary, path: tuple[int, ...]) -> NodeFact:
        child = self.facts[node.child.node_id]
        config = node.config
        if config.opcode is UnaryOp.NO_OP:
            return child
        if config.opcode is UnaryOp.PREDICATE:
            assert config.attr is not None
            assert config.rel_op is not None and config.val is not None
            admitted = IntervalSet.from_predicate(config.rel_op, config.val)
            region = child.region.meet(Region.of({config.attr: admitted}))
            if region.empty and not child.region.empty:
                upstream = child.region.get(config.attr)
                self._report.add(
                    "TH017",
                    f"predicate {config.describe()} can never fire: the "
                    f"feasible {config.attr!r} region upstream is "
                    f"{upstream.describe()}, disjoint from "
                    f"{admitted.describe()}",
                    operator=config.describe(), node_path=path,
                )
            tautological = child.region.get(config.attr).issubset(admitted)
            return _fact(
                region,
                guaranteed=child.guaranteed and tautological,
                full=child.full and tautological,
            )
        # Selectors (min/max/round-robin/random) pick a non-empty subset
        # of a non-empty input: the region passes through, the guarantee
        # survives, fullness does not.
        return _fact(child.region, guaranteed=child.guaranteed, full=False)

    def _binary(self, node: Binary, path: tuple[int, ...]) -> NodeFact:
        left = self.facts[node.left.node_id]
        right = self.facts[node.right.node_id]
        if node.opcode is BinaryOp.NO_OP:
            return left if node.choice == 0 else right
        if node.opcode is BinaryOp.UNION:
            return _fact(
                left.region.join(right.region),
                guaranteed=left.guaranteed or right.guaranteed,
                full=left.full or right.full,
            )
        if node.opcode is BinaryOp.INTERSECTION:
            region = left.region.meet(right.region)
            if (region.empty and not left.region.empty
                    and not right.region.empty):
                self._report.add(
                    "TH019",
                    "intersection is provably empty: the operands admit "
                    f"disjoint regions {left.region.describe()} and "
                    f"{right.region.describe()}",
                    operator=str(node.opcode), node_path=path,
                )
            return _fact(
                region,
                guaranteed=(left.full and right.guaranteed)
                or (right.full and left.guaranteed),
                full=left.full and right.full,
            )
        # DIFFERENCE: the right region over-approximates, so it cannot be
        # subtracted from the left region soundly — except in the two
        # provable extremes, which are exactly the TH019 shapes.
        if right.full:
            if not left.region.empty:
                self._report.add(
                    "TH019",
                    "difference subtracts the full table: the output is "
                    "provably empty",
                    operator=str(node.opcode), node_path=path,
                )
            return _fact(Region.bottom(), guaranteed=False, full=False)
        identity = right.region.empty
        if identity and not left.region.empty:
            self._report.add(
                "TH019",
                "difference subtracts a provably-empty set: the operator "
                "is the identity on its left operand",
                operator=str(node.opcode), node_path=path,
            )
        return _fact(
            left.region,
            guaranteed=left.guaranteed and identity,
            full=left.full and identity,
        )

    def _conditional(self, node: Conditional,
                     path: tuple[int, ...]) -> NodeFact:
        primary = self.facts[node.primary.node_id]
        fallback = self.facts[node.fallback.node_id]
        if primary.region.empty:
            self._report.add(
                "TH018",
                "the primary arm's feasible region is empty: the "
                "conditional always selects the fallback",
                operator=node.describe(), node_path=path + (0,),
            )
            return fallback
        if primary.guaranteed:
            self._report.add(
                "TH018",
                "the fallback arm is shadowed: the primary arm is "
                "provably non-empty whenever the table is, so the "
                "fallback never contributes a row",
                operator=node.describe(), node_path=path + (1,),
            )
            return primary
        return _fact(
            primary.region.join(fallback.region),
            guaranteed=primary.guaranteed or fallback.guaranteed,
            full=False,
        )


def _seed_region(smbm: "SMBM | None") -> Region:
    """Top statically; the observed per-metric value span when a live,
    non-empty table is supplied."""
    if smbm is None or len(smbm) == 0:
        return Region.top()
    spans: dict[str, IntervalSet] = {}
    for metric in smbm.metric_names:
        values = smbm.attr_list(metric)
        spans[metric] = IntervalSet.span(values[0][0], values[-1][0])
    return Region.of(spans)


def analyze_policy(
    policy: Policy,
    *,
    schema: "TableSchema | None" = None,
    smbm: "SMBM | None" = None,
) -> SemanticAnalysis:
    """Abstractly interpret ``policy``; never raises on any legal DAG.

    ``schema`` is accepted for symmetry with the verifier (today every
    metric shares the stored-word width; per-metric widths would refine
    the seed here).  ``smbm`` tightens the seed to the live value ranges —
    the returned analysis records the table version it is valid at.
    """
    report = Report(subject=f"policy {policy.name!r} semantics")
    paths = {
        node.node_id: path for node, path in preorder_paths(policy.root)
    }
    analyzer = _Analyzer(_seed_region(smbm), report, paths)
    for node in postorder(policy.root):
        analyzer.visit(node)
    return SemanticAnalysis(
        policy=policy,
        report=report,
        facts=analyzer.facts,
        node_paths=paths,
        root=analyzer.facts[policy.root.node_id],
        schema=schema,
        table_version=None if smbm is None else smbm.version,
    )


# -- cross-tenant overlap (TH021) ------------------------------------------------------


def cross_tenant_overlap(region_a: Region, region_b: Region) -> Region | None:
    """The region two admitted match regions share on their common
    constrained metrics, or None when they provably cannot claim the
    same rows.

    Regions that constrain no common metric make no comparable claim
    (each filters along its own dimension) and report no overlap —
    TH021 targets tenants *competing for the same match space*, not
    merely coexisting.
    """
    if region_a.empty or region_b.empty:
        return None
    shared = sorted(
        set(region_a.constrained_metrics) & set(region_b.constrained_metrics)
    )
    if not shared:
        return None
    overlap = {m: region_a.get(m).meet(region_b.get(m)) for m in shared}
    if any(values.is_empty for values in overlap.values()):
        return None
    return Region.of(overlap)


def tenant_overlap_report(
    name: str,
    region: Region,
    sitting: Iterable[tuple[str, Region]],
    *,
    subject: str,
) -> Report:
    """TH021 for one newcomer: its admitted region against each sitting
    tenant's.  Pairs among the sitting tenants were reported when the
    later of the two arrived, so they are not compared again."""
    report = Report(subject=subject)
    for other, other_region in sitting:
        overlap = cross_tenant_overlap(region, other_region)
        if overlap is not None:
            report.add(
                "TH021",
                f"tenants {name!r} and {other!r} claim overlapping "
                "match regions on shared metrics "
                f"{list(overlap.constrained_metrics)}: "
                f"{overlap.describe()}",
            )
    return report

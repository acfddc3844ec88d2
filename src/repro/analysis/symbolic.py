"""Symbolic policy semantics: abstract interpretation over the policy DAG.

The structural verifier (TH001–TH016) proves a plan *fits* the pipeline;
this module proves things about what the plan *means*.  The abstract
interpreter is one more :func:`~repro.core.policy.fold` domain, whose
value is a :class:`NodeFact` of three facts per edge:

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

Every input line starts from the stored-word width: each metric lives
in ``[0, 2**STORED_WORD_BITS - 1]``, so its region is top.

The domain emits the semantic lint rules, each at its node's first
pre-order path (:func:`~repro.core.policy.preorder_paths`, looked up by
``node_id``):

* **TH017** UnreachablePredicate — a predicate whose feasible region is
  empty: it can never fire.
* **TH018** ShadowedBranch — a :class:`~repro.core.policy.Conditional`
  arm that can never serve: the fallback when the primary is guaranteed
  non-empty, or the primary when its region is empty.
* **TH019** VacuousSetOp — an intersection that is provably empty, a
  difference that provably subtracts nothing (identity) or subtracts the
  full table (provably empty output).

The analysis is a function of the policy alone, so a
:class:`~repro.switch.filter_module.FilterModule` computes it once,
when the policy is programmed, and every consumer reads that copy.  On
top of it sits one cross-policy check over *regions*, not policies:
:func:`tenant_overlap_report` flags a newcomer whose admitted match
region overlaps a sitting tenant's on shared metrics (**TH021**).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.analysis.domains import IntervalSet, Region
from repro.analysis.findings import Report
from repro.core.operators import BinaryOp
from repro.core.policy import (
    Binary,
    Conditional,
    Node,
    Policy,
    TableRef,
    Unary,
    fold,
    preorder_paths,
)
from repro.errors import ConfigurationError

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
    """The :class:`NodeFact` domain of :func:`fold`: one abstract transfer
    function per operator, each reporting at its node's path."""

    def __init__(self, report: Report,
                 paths: Mapping[int, tuple[int, ...]]) -> None:
        self._report = report
        self._paths = paths

    def table(self, node: TableRef) -> NodeFact:
        return NodeFact(Region.top(), guaranteed=True, full=True)

    def feedback(self, node: TableRef) -> NodeFact:
        # A feedback line still holds rows of the *same* SMBM (the
        # register is a row mask, empty before the first packet), so
        # the top region applies — but it may be empty at any time, so
        # neither guarantee survives.
        return NodeFact(Region.top(), guaranteed=False, full=False)

    def predicate(self, node: Unary, child: NodeFact) -> NodeFact:
        config = node.config
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
                operator=config.describe(),
                node_path=self._paths[node.node_id],
            )
        tautological = child.region.get(config.attr).issubset(admitted)
        return _fact(
            region,
            guaranteed=child.guaranteed and tautological,
            full=child.full and tautological,
        )

    def select(self, node: Unary, child: NodeFact) -> NodeFact:
        # Selectors (min/max, and the round-robin/random units) pick a
        # non-empty subset of a non-empty input: the region passes
        # through, the guarantee survives, fullness does not.
        return _fact(child.region, guaranteed=child.guaranteed, full=False)

    unit = select

    def binary(self, node: Binary, left: NodeFact,
               right: NodeFact) -> NodeFact:
        path = self._paths[node.node_id]
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

    def conditional(self, node: Conditional, primary: NodeFact,
                    fallback: NodeFact) -> NodeFact:
        path = self._paths[node.node_id]
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


def analyze_policy(policy: Policy) -> SemanticAnalysis:
    """Abstractly interpret ``policy`` — :func:`fold` in the
    :class:`NodeFact` domain; never raises on any legal DAG."""
    report = Report(subject=f"policy {policy.name!r} semantics")
    paths = {
        node.node_id: path for node, path in preorder_paths(policy.root)
    }
    facts: dict[int, NodeFact] = {}
    root = fold(policy, _Analyzer(report, paths), facts)
    return SemanticAnalysis(policy=policy, report=report, facts=facts,
                            node_paths=paths, root=root)


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

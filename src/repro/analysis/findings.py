"""Rule registry and the shared diagnostic format of the static analyses.

Every check the verifier performs carries a stable rule id (``TH001`` ...)
so findings are greppable, suppressible and testable one rule at a time.
Error-level rules describe plans that cannot run correctly and make
:meth:`Report.raise_if_errors` raise a
:class:`~repro.errors.CompilationError` carrying the same structured
context (rule / stage / cell / operator) that the compiler's own raise
sites attach — one diagnostic format for both.  Warning-level rules are
lints: the plan runs, but something about it is suspicious (a programmed
unit nothing reads, a provably-empty intersection).
"""

from __future__ import annotations

import enum
import weakref
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import CompilationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import Fault

__all__ = ["Severity", "Rule", "RULES", "Finding", "Report"]


class Severity(enum.Enum):
    """Finding severity: errors reject the plan, warnings only report."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Rule:
    """One registered check: stable id, short name, severity, summary."""

    rule_id: str
    name: str
    severity: Severity
    summary: str


#: The rule registry.  Ids are append-only and never reused: tests, CI
#: grep filters and suppression lists all key on them.
RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule("TH001", "DeadOperator", Severity.WARNING,
             "a programmed unit sits in a Cell no live output can reach"),
        Rule("TH002", "UnknownMetric", Severity.ERROR,
             "an operator reads an attribute absent from the SMBM schema"),
        Rule("TH003", "ValueWidthExceeded", Severity.ERROR,
             "a predicate operand does not fit the stored metric word"),
        Rule("TH004", "ChainOverflow", Severity.ERROR,
             "a parallel chain K is longer than the physical K-UFPU chain"),
        Rule("TH005", "FanoutExceeded", Severity.ERROR,
             "a source line feeds more crossbar ports than the fan-out f"),
        Rule("TH006", "WiringRange", Severity.ERROR,
             "a stage or Cell count, or a wiring endpoint (port, line, "
             "input index), is out of range"),
        Rule("TH007", "BenesUnroutable", Severity.ERROR,
             "retired (no check emits it): each stage's default-size Benes "
             "network routes every TH005/TH006-clean wiring"),
        Rule("TH008", "TimingClosure", Severity.ERROR,
             "the plan's critical path cannot meet the target clock"),
        Rule("TH009", "CapacityOverflow", Severity.ERROR,
             "the policy needs more Cells, sides or stages than the "
             "pipeline has"),
        Rule("TH010", "UnreadUnit", Severity.WARNING,
             "a programmed K-UFPU's output is dropped by the Cell's BFPU "
             "muxing"),
        Rule("TH011", "ContradictoryPredicates", Severity.WARNING,
             "retired into TH019 (no check emits it): an intersection of "
             "contradictory predicates is one case of a provably empty "
             "intersection"),
        Rule("TH012", "CodegenIneligible", Severity.WARNING,
             "retired (no check emits it): every stateless plan is served "
             "by its kernel and a stateful one by the Cells, so there is "
             "no per-tenant lowering choice left to lint"),
        Rule("TH013", "QuotaExceeded", Severity.ERROR,
             "a tenant's plan or table needs more Cells or SMBM rows than "
             "its admitted quota, or admission would oversubscribe the "
             "physical pipeline"),
        Rule("TH014", "CrossTenantWiring", Severity.ERROR,
             "a tenant's plan programs a Cell or taps a line outside its "
             "own slice of the shared pipeline"),
        Rule("TH015", "CheckpointUnfaithful", Severity.ERROR,
             "a tenant's serving state diverges across a checkpoint "
             "boundary (restored table, policy, or epoch watermark is not "
             "bit-identical to the source)"),
        Rule("TH016", "ReplayHandlerMissing", Severity.ERROR,
             "retired: unrepresentable since the op table (no check "
             "emits it) — the kinds the write-ahead log accepts are the "
             "keys of the one table recovery replays through"),
        Rule("TH017", "UnreachablePredicate", Severity.WARNING,
             "a predicate's feasible region is empty: no table row can "
             "ever satisfy it, so the operator never fires"),
        Rule("TH018", "ShadowedBranch", Severity.WARNING,
             "a Conditional arm can never serve: the fallback is shadowed "
             "by a provably non-empty primary, or the primary's feasible "
             "region is empty"),
        Rule("TH019", "VacuousSetOp", Severity.WARNING,
             "a set operation is provably vacuous: an intersection of "
             "disjoint regions, or a difference that subtracts nothing "
             "(identity) or everything (empty output)"),
        Rule("TH020", "SemanticHotSwapChange", Severity.ERROR,
             "retired (no check emits it): the hot-swap gate refuses any "
             "replacement with a TH017-TH019 finding, and an explicit "
             "replacement is meant to change what the policy admits"),
        Rule("TH021", "CrossTenantOverlap", Severity.WARNING,
             "two tenants' admitted policies claim overlapping match "
             "regions on shared metrics of the one physical table "
             "schema"),
    )
}


@dataclass(frozen=True)
class Finding:
    """One verifier finding, locatable down to a stage / Cell / operator.

    The location fields mirror
    :class:`~repro.errors.CompilationError`'s context so a finding raised
    as an error and a compile-time failure print identically.
    ``node_path`` locates AST-level findings (TH002–TH004, TH017–TH019)
    inside the policy DAG: the root-to-node child-index path, ``()`` for
    the root itself.
    """

    rule: str
    message: str
    stage: int | None = None
    cell: int | None = None
    operator: str | None = None
    node_path: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unregistered rule id {self.rule!r}")
        if self.node_path is not None:
            object.__setattr__(self, "node_path", tuple(self.node_path))

    @property
    def severity(self) -> Severity:
        return RULES[self.rule].severity

    @property
    def name(self) -> str:
        return RULES[self.rule].name

    def format(self) -> str:
        """``TH001 DeadOperator [stage 2, cell 0]: message`` one-liner."""
        where = []
        if self.stage is not None:
            where.append(f"stage {self.stage}")
        if self.cell is not None:
            where.append(f"cell {self.cell}")
        if self.operator is not None:
            where.append(self.operator)
        if self.node_path is not None:
            path = ".".join(str(i) for i in self.node_path) or "root"
            where.append(f"node {path}")
        loc = f" [{', '.join(where)}]" if where else ""
        return f"{self.rule} {self.name}{loc}: {self.message}"


#: Per-registry emit de-duplication: (subject, finding) pairs already
#: counted through each obs registry.  Keyed weakly so short-lived test
#: registries carry no cost after they are dropped.
_EMITTED: "weakref.WeakKeyDictionary[object, set[tuple[str, Finding]]]" = (
    weakref.WeakKeyDictionary()
)


@dataclass
class Report:
    """The outcome of one verification pass: an ordered finding list.

    ``subject`` names what was verified (a policy name, a config) for the
    human-readable header of :meth:`describe`.
    """

    subject: str = "plan"
    findings: list[Finding] = field(default_factory=list)

    def add(self, rule: str, message: str, *, stage: int | None = None,
            cell: int | None = None, operator: str | None = None,
            node_path: tuple[int, ...] | None = None) -> Finding:
        finding = Finding(rule, message, stage=stage, cell=cell,
                          operator=operator, node_path=node_path)
        self.findings.append(finding)
        return finding

    def add_faults(self, faults: Iterable[Fault]) -> None:
        """Record each broken pipeline limit
        (:func:`~repro.core.pipeline.policy_faults`,
        :func:`~repro.core.pipeline.config_faults`) as a finding."""
        self.findings.extend(Finding(**fault._asdict()) for fault in faults)

    def add_refusal(self, exc: CompilationError) -> Report:
        """Record a refused compile as a finding under its own rule id
        (TH009 when the raise site attached none), unless a finding of
        that rule is already here (a static check found it first)."""
        rule = exc.rule or "TH009"
        if all(f.rule != rule for f in self.findings):
            self.add(rule, str(exc.args[0] if exc.args else exc),
                     stage=exc.stage, cell=exc.cell, operator=exc.operator)
        return self

    def extend(self, other: "Report") -> "Report":
        self.findings.extend(other.findings)
        return self

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-level finding was recorded (warnings allowed)."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """True when nothing at all was found."""
        return not self.findings

    def describe(self) -> str:
        if not self.findings:
            return f"{self.subject}: clean"
        lines = [
            f"{self.subject}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        ]
        lines.extend(f"  {f.format()}" for f in self.findings)
        return "\n".join(lines)

    def emit(self) -> None:
        """Count every finding through the active obs registry.

        One ``lint_findings_total{rule=...}`` increment per finding; a
        no-op under the default null registry.  Identical findings about
        the same subject are counted **once per registry**: re-compiling
        the same policy (hot-swap retries, a re-run lint pass) must not inflate the per-rule counters — a distinct message
        or location is a distinct finding and still counts.
        """
        from repro import obs  # late: obs is cheap but keep import local

        registry = obs.get_registry()
        if not registry.enabled:
            return  # null registry: counters discard, skip the bookkeeping
        seen = _EMITTED.get(registry)
        if seen is None:
            seen = set()
            _EMITTED[registry] = seen
        for finding in self.findings:
            key = (self.subject, finding)
            if key in seen:
                continue
            seen.add(key)
            registry.counter(
                "lint_findings_total", {"rule": finding.rule},
                help="static-analysis findings by rule id",
            ).inc()

    def raise_if_errors(self) -> None:
        """Raise a :class:`~repro.errors.CompilationError` for the first
        error-level finding (all errors are listed in the message)."""
        errors = self.errors
        if not errors:
            return
        first = errors[0]
        detail = "; ".join(f.format() for f in errors)
        raise CompilationError(
            f"plan verification failed for {self.subject}: {detail}",
            rule=first.rule, stage=first.stage, cell=first.cell,
            operator=first.operator,
        )

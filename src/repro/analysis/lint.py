"""``python -m repro.analysis.lint`` — lint every bundled policy.

Runs the static plan verifier over each policy shipped in
:mod:`repro.policies`, compiled onto the same pipeline geometry and table
schema its bundled module uses.  Exit status 0 when no error-level finding
was produced (warnings are printed but do not fail the build), 1
otherwise — the CI ``lint`` job keys on this.

Every entry also gets its symbolic analysis
(:func:`~repro.analysis.symbolic.analyze_policy`, TH017–TH019): the
compile checks structure only, so the CLI asks for what a policy means
itself.  ``--semantic`` extends the run with the symbolic-analysis
demonstrations (TH017–TH019 reachability/shadowing, TH021 cross-tenant
overlap) and times the analysis against the structural verification; a
demonstration that stopped firing, or an overhead at the 2x budget, is
an error like any other and sets the exit status.  ``--format json``
emits one machine-readable document (findings with rule / severity /
node path, stale demos, the summary and the timing block) instead of
text.

::

    PYTHONPATH=src python -m repro.analysis.lint            # all policies
    PYTHONPATH=src python -m repro.analysis.lint -v         # show clean ones
    PYTHONPATH=src python -m repro.analysis.lint drill      # name filter
    PYTHONPATH=src python -m repro.analysis.lint --semantic --format json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.analysis.findings import Finding, Report
from repro.analysis.symbolic import (
    SemanticAnalysis,
    analyze_policy,
    tenant_overlap_report,
)
from repro.analysis.verifier import (
    PlanVerifier,
    TableSchema,
    TenantSlice,
    verify_policy_compiles,
)
from repro.core.pipeline import PipelineParams
from repro.core.policy import Policy
from repro.errors import CompilationError

__all__ = [
    "POLICY_CATALOGUE",
    "SEMANTIC_CATALOGUE",
    "CatalogueEntry",
    "lint_all",
    "measure_semantic_overhead",
    "main",
]

#: Table size the bundled policies are linted against (the paper's default N).
LINT_CAPACITY = 128


@dataclass(frozen=True)
class CatalogueEntry:
    """One bundled policy plus the geometry/schema its module deploys it on.

    Entries with a ``tenant_slice`` are linted as *tenant plans*: the
    policy is compiled confined to the slice (unless ``confined=False`` —
    the escape demonstrations compile against the whole pipeline) and the
    emitted configuration goes through
    :meth:`~repro.analysis.verifier.PlanVerifier.verify_slice`, so the
    TH013/TH014 isolation rules run from the CLI.  ``expect_rules`` names
    rules an entry exists to *demonstrate*: their findings are printed but
    do not fail the build, while a demo entry that stops producing its
    expected rule does (the demonstration went stale).  ``co_tenants``
    names other catalogue entries this one is checked against as if the
    pair were admitted to one switch: the TH021 cross-tenant overlap
    findings land on this entry's report.
    """

    name: str
    build: Callable[[], Policy]
    params: PipelineParams
    schema: TableSchema
    tenant_slice: TenantSlice | None = None
    confined: bool = True
    expect_rules: tuple[str, ...] = ()
    co_tenants: tuple[str, ...] = ()


def _table5(key: str) -> Callable[[], Policy]:
    def build() -> Policy:
        from repro.policies.table5 import build_table5_policy

        return build_table5_policy(key)

    return build


def _firewall() -> Policy:
    from repro.policies.firewall import RateFirewall

    return RateFirewall(8, 1000.0).module.compiled.policy


def _diagnosis() -> Policy:
    from repro.policies.diagnosis import PortRateMonitor

    return PortRateMonitor(8, 1000.0).module.compiled.policy


def _portlb() -> Policy:
    from repro.core.policy import TableRef, min_of

    return Policy(min_of(TableRef(), "queue"), name="portlb-least-queued")


def _sliced_lb() -> Policy:
    from repro.core.operators import RelOp
    from repro.core.policy import TableRef, intersection, min_of, predicate

    table = TableRef()
    eligible = intersection(
        predicate(table, "cpu", RelOp.LT, 70),
        predicate(table, "mem", RelOp.GT, 16),
    )
    return Policy(min_of(eligible, "cpu"), name="tenant-sliced-lb")


def _wide_lb() -> Policy:
    # Wide on purpose: four leaf predicates force two Cells in the first
    # stage, so an unconfined compile cannot stay inside a single column.
    from repro.core.operators import RelOp
    from repro.core.policy import TableRef, intersection, min_of, predicate

    table = TableRef()
    healthy = intersection(
        predicate(table, "cpu", RelOp.LT, 70),
        predicate(table, "mem", RelOp.GT, 16),
    )
    sane = intersection(
        predicate(table, "cpu", RelOp.GT, 2),
        predicate(table, "mem", RelOp.LT, 4096),
    )
    return Policy(
        min_of(intersection(healthy, sane), "cpu"), name="tenant-wide-lb"
    )


def _semantic_unreachable() -> Policy:
    # A chained pair of predicates whose admitted regions are disjoint:
    # every node is locally fine, the chain is semantically dead — the
    # TH017 demonstration.
    from repro.core.operators import RelOp
    from repro.core.policy import TableRef, predicate

    inner = predicate(TableRef(), "cpu", RelOp.LT, 10)
    return Policy(
        predicate(inner, "cpu", RelOp.GT, 20),
        name="semantic-unreachable-demo",
    )


def _semantic_shadow() -> Policy:
    # min-of over the full table is non-empty whenever the table is, so
    # the Conditional's fallback arm can never serve — the TH018 demo.
    from repro.core.operators import RelOp
    from repro.core.policy import Conditional, TableRef, min_of, predicate

    table = TableRef()
    return Policy(
        Conditional(
            min_of(table, "cpu"),
            predicate(table, "cpu", RelOp.LT, 50),
        ),
        name="semantic-shadow-demo",
    )


def _semantic_vacuous() -> Policy:
    # The right arm's region is cpu>20 (selectors pass regions through),
    # disjoint from the left arm's cpu<10 — a provably-empty intersection
    # no sibling-predicate comparison would see.  The TH019 demonstration.
    from repro.core.operators import RelOp
    from repro.core.policy import TableRef, intersection, min_of, predicate

    table = TableRef()
    return Policy(
        intersection(
            predicate(table, "cpu", RelOp.LT, 10),
            min_of(predicate(table, "cpu", RelOp.GT, 20), "mem"),
        ),
        name="semantic-vacuous-demo",
    )


def _semantic_overlap_a() -> Policy:
    from repro.core.operators import RelOp
    from repro.core.policy import TableRef, predicate

    return Policy(
        predicate(TableRef(), "cpu", RelOp.LT, 50),
        name="semantic-overlap-a",
    )


def _semantic_overlap_b() -> Policy:
    from repro.core.operators import RelOp
    from repro.core.policy import TableRef, intersection, predicate

    table = TableRef()
    return Policy(
        intersection(
            predicate(table, "cpu", RelOp.GT, 30),
            predicate(table, "cpu", RelOp.LT, 60),
        ),
        name="semantic-overlap-b",
    )


_ROUTING_SCHEMA = TableSchema(LINT_CAPACITY, ("util", "queue", "loss"))
_QUEUE_SCHEMA = TableSchema(LINT_CAPACITY, ("queue",))
_RATE_SCHEMA = TableSchema(LINT_CAPACITY, ("rate",))
_TENANT_SCHEMA = TableSchema(16, ("cpu", "mem"))
#: Geometry of the tenancy demonstrations: 4 Cell columns, so a one- or
#: two-column slice leaves real foreign state to be isolated from.
_TENANT_PARAMS = PipelineParams(n=8, k=4, f=2, chain_length=4)

#: Every bundled policy, on the pipeline geometry its module deploys.
POLICY_CATALOGUE: tuple[CatalogueEntry, ...] = (
    CatalogueEntry("ecmp-random", _table5("ecmp-random"),
                   PipelineParams(), _ROUTING_SCHEMA),
    CatalogueEntry("conga-min-util", _table5("conga-min-util"),
                   PipelineParams(), _ROUTING_SCHEMA),
    CatalogueEntry("l4lb-resource", _table5("l4lb-resource"),
                   PipelineParams(n=4, k=3, f=2, chain_length=2),
                   TableSchema(LINT_CAPACITY, ("cpu", "mem", "bw"))),
    CatalogueEntry("routing-top-x", _table5("routing-top-x"),
                   PipelineParams(n=8, k=4, f=2, chain_length=8),
                   _ROUTING_SCHEMA),
    CatalogueEntry("drill", _table5("drill"),
                   PipelineParams(n=4, k=3, f=2, chain_length=2),
                   _QUEUE_SCHEMA),
    CatalogueEntry("firewall-rate", _firewall,
                   PipelineParams(n=2, k=1, f=1, chain_length=1),
                   _RATE_SCHEMA),
    CatalogueEntry("diagnosis-port-rate", _diagnosis,
                   PipelineParams(n=2, k=1, f=1, chain_length=1),
                   _RATE_SCHEMA),
    CatalogueEntry("portlb-least-queued", _portlb,
                   PipelineParams(n=2, k=1, f=2, chain_length=1),
                   _QUEUE_SCHEMA),
    # Tenancy-sliced plans: the TH013/TH014 isolation rules, exercised
    # from the CLI on the same verifier path admission control uses.
    CatalogueEntry("tenancy-sliced-lb", _sliced_lb,
                   _TENANT_PARAMS, _TENANT_SCHEMA,
                   tenant_slice=TenantSlice(
                       columns=frozenset({0, 1}), smbm_quota=16,
                   )),
    CatalogueEntry("tenancy-quota-demo", _sliced_lb,
                   _TENANT_PARAMS, _TENANT_SCHEMA,
                   tenant_slice=TenantSlice(
                       columns=frozenset({0, 1}), smbm_quota=16,
                       cell_quota=1,
                   ),
                   expect_rules=("TH013",)),
    CatalogueEntry("tenancy-escape-demo", _wide_lb,
                   _TENANT_PARAMS, _TENANT_SCHEMA,
                   tenant_slice=TenantSlice(
                       columns=frozenset({0}), smbm_quota=16,
                   ),
                   confined=False,
                   expect_rules=("TH013", "TH014")),
)

#: The symbolic-analysis demonstrations, run only under ``--semantic``:
#: one entry per reachability/shadowing rule plus the cross-tenant
#: overlap pair.  Kept out of :data:`POLICY_CATALOGUE` so the default
#: lint pass (and its exact summary line) is unchanged.
SEMANTIC_CATALOGUE: tuple[CatalogueEntry, ...] = (
    CatalogueEntry("semantic-unreachable-demo", _semantic_unreachable,
                   _TENANT_PARAMS, _TENANT_SCHEMA,
                   expect_rules=("TH017",)),
    CatalogueEntry("semantic-shadow-demo", _semantic_shadow,
                   _TENANT_PARAMS, _TENANT_SCHEMA,
                   expect_rules=("TH018",)),
    CatalogueEntry("semantic-vacuous-demo", _semantic_vacuous,
                   _TENANT_PARAMS, _TENANT_SCHEMA,
                   expect_rules=("TH019",)),
    CatalogueEntry("semantic-overlap-a", _semantic_overlap_a,
                   _TENANT_PARAMS, _TENANT_SCHEMA),
    CatalogueEntry("semantic-overlap-b", _semantic_overlap_b,
                   _TENANT_PARAMS, _TENANT_SCHEMA,
                   co_tenants=("semantic-overlap-a",),
                   expect_rules=("TH021",)),
)


def _catalogue(semantic: bool) -> tuple[CatalogueEntry, ...]:
    return POLICY_CATALOGUE + (SEMANTIC_CATALOGUE if semantic else ())


def _verify_entry(entry: CatalogueEntry) -> Report:
    """One catalogue entry's structural verification, slice-aware."""
    policy = entry.build()
    if entry.tenant_slice is None:
        return verify_policy_compiles(policy, entry.params,
                                      schema=entry.schema)
    from repro.core.compiler import PolicyCompiler  # late: import cycle

    tenant_slice = entry.tenant_slice
    dead = (tenant_slice.reserved_cells(entry.params)
            if entry.confined else frozenset())
    lines = tenant_slice.lines if entry.confined else None
    try:
        compiled = PolicyCompiler(entry.params).compile(
            policy, verify=False, dead_cells=dead, input_lines=lines,
        )
    except CompilationError as exc:
        report = Report(subject=f"tenant slice of {policy.name!r}")
        return report.add_refusal(exc)
    verifier = PlanVerifier(entry.params, schema=entry.schema)
    return verifier.verify_slice(compiled, tenant_slice)


def _analyze_entry(entry: CatalogueEntry) -> SemanticAnalysis:
    """The entry's symbolic analysis (TH017–TH019, its root region)."""
    return analyze_policy(entry.build())


def _overlap_report(entry: CatalogueEntry,
                    by_name: dict[str, CatalogueEntry]) -> Report:
    """The entry's TH021 pass, admitted after its declared co-tenants."""
    sitting = []
    for other_name in entry.co_tenants:
        other = by_name.get(other_name)
        if other is None:
            report = Report(subject=f"co-tenants of {entry.name!r}")
            report.add(
                "TH021",
                f"catalogue entry {entry.name!r} names unknown co-tenant "
                f"{other_name!r}",
            )
            return report
        sitting.append((other.name, _analyze_entry(other).root_region))
    return tenant_overlap_report(
        entry.name, _analyze_entry(entry).root_region, sitting,
        subject=f"co-tenants of {entry.name!r}",
    )


def lint_all(name_filter: str | None = None, *,
             semantic: bool = False) -> dict[str, Report]:
    """Verify every catalogued policy; returns reports by policy name.

    With ``semantic=True`` the symbolic demonstrations run too, and every
    entry declaring ``co_tenants`` gets the pairwise TH021 overlap check
    appended to its report.
    """
    catalogue = _catalogue(semantic)
    by_name = {entry.name: entry for entry in catalogue}
    reports: dict[str, Report] = {}
    for entry in catalogue:
        if name_filter and name_filter not in entry.name:
            continue
        report = _verify_entry(entry)
        report.extend(_analyze_entry(entry).report)
        if semantic and entry.co_tenants:
            report.extend(_overlap_report(entry, by_name))
        report.emit()
        reports[entry.name] = report
    return reports


#: The lint-time budget of the symbolic pass: ``--semantic`` fails when
#: verifying and analysing costs this many times verifying alone.
SEMANTIC_OVERHEAD_BUDGET = 2.0


def measure_semantic_overhead() -> dict[str, float]:
    """Lint-time cost of the semantic pass over the bundled catalogue.

    Times the structural verification of every non-tenant entry (the
    baseline) and its :func:`~repro.analysis.symbolic.analyze_policy`
    call, and reports ``(baseline + analysis) / baseline``, held under
    :data:`SEMANTIC_OVERHEAD_BUDGET`: the abstract interpretation must
    stay well under the cost of trial compilation itself.  Each side is
    the fastest of three alternating rounds — the loops run a few
    milliseconds, and one scheduler stall must not read as a blown budget.
    """
    entries = [e for e in POLICY_CATALOGUE if e.tenant_slice is None]

    def timed(lint: Callable[[CatalogueEntry], object]) -> float:
        t0 = time.perf_counter()
        for entry in entries:
            lint(entry)
        return time.perf_counter() - t0

    timed(_verify_entry)  # warm imports/caches out of the measurement
    rounds = [(timed(_verify_entry), timed(_analyze_entry))
              for _ in range(3)]
    baseline_s = min(base for base, _ in rounds)
    semantic_s = baseline_s + min(sem for _, sem in rounds)
    ratio = semantic_s / baseline_s if baseline_s > 0 else float("inf")
    return {
        "baseline_s": baseline_s,
        "semantic_s": semantic_s,
        "ratio": ratio,
    }


def _finding_dict(finding: Finding) -> dict[str, object]:
    return {
        "rule": finding.rule,
        "name": finding.name,
        "severity": str(finding.severity),
        "message": finding.message,
        "stage": finding.stage,
        "cell": finding.cell,
        "operator": finding.operator,
        "node_path": (None if finding.node_path is None
                      else list(finding.node_path)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint", description=__doc__,
    )
    parser.add_argument(
        "filter", nargs="?", default=None,
        help="only lint policies whose name contains this substring",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print clean policies (default: findings only)",
    )
    parser.add_argument(
        "--semantic", action="store_true",
        help="also run the symbolic-analysis demonstrations (TH017-TH021) "
             "and measure the semantic pass's lint-time overhead",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format: human-readable text (default) or one JSON "
             "document for CI consumption",
    )
    args = parser.parse_args(argv)

    reports = lint_all(args.filter, semantic=args.semantic)
    if not reports:
        print(f"no bundled policy matches {args.filter!r}", file=sys.stderr)
        return 2
    entries = {entry.name: entry for entry in _catalogue(args.semantic)}
    n_errors = n_warnings = n_expected = 0
    policies_doc: list[dict[str, object]] = []
    text_lines: list[str] = []
    for name, report in reports.items():
        expected_rules = set(entries[name].expect_rules)
        # A demo rule counts as expected at either severity: the tenancy
        # demos fire errors, the semantic demos warnings.
        expected = [f for f in report.findings if f.rule in expected_rules]
        unexpected_errors = [
            f for f in report.errors if f.rule not in expected_rules
        ]
        unexpected_warnings = [
            f for f in report.warnings if f.rule not in expected_rules
        ]
        # A demonstration that stops demonstrating is itself a failure:
        # the catalogue promised these rules would fire from the CLI.
        stale = sorted(expected_rules - {f.rule for f in report.findings})
        for rule in stale:
            text_lines.append(
                f"{name}: expected demonstration rule {rule} produced "
                "no finding (stale demo entry)"
            )
        n_errors += len(unexpected_errors) + len(stale)
        n_warnings += len(unexpected_warnings)
        n_expected += len(expected)
        policies_doc.append({
            "name": name,
            "subject": report.subject,
            "clean": report.clean,
            "findings": [_finding_dict(f) for f in report.findings],
            "expected_rules": sorted(expected_rules),
            "stale_rules": stale,
        })
        if report.clean:
            if args.verbose:
                text_lines.append(f"{name}: clean")
            continue
        suffix = " (expected: demonstration entry)" if expected else ""
        text_lines.append(report.describe() + suffix)
    timing = measure_semantic_overhead() if args.semantic else None
    if timing is not None and timing["ratio"] >= SEMANTIC_OVERHEAD_BUDGET:
        text_lines.append(
            f"semantic pass overhead {timing['ratio']:.2f}x reaches the "
            f"{SEMANTIC_OVERHEAD_BUDGET:g}x lint-time budget"
        )
        n_errors += 1

    summary_line = (
        f"linted {len(reports)} bundled polic"
        f"{'y' if len(reports) == 1 else 'ies'}: "
        f"{n_errors} error(s), {n_warnings} warning(s), "
        f"{n_expected} expected demo finding(s)"
    )
    if args.format == "json":
        doc: dict[str, object] = {
            "policies": policies_doc,
            "summary": {
                "linted": len(reports),
                "errors": n_errors,
                "warnings": n_warnings,
                "expected_demo_findings": n_expected,
            },
        }
        if timing is not None:
            doc["timing"] = timing
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)
        if timing is not None:
            print(
                f"semantic overhead: baseline {timing['baseline_s']:.3f}s, "
                f"with symbolic pass {timing['semantic_s']:.3f}s "
                f"(ratio {timing['ratio']:.2f})"
            )
        print(summary_line)
    return 1 if n_errors else 0


if __name__ == "__main__":
    sys.exit(main())

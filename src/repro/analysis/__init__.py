"""Static analysis and runtime sanitizers for compiled filter plans.

The paper's deployment model is *compile-time only*: a policy is mapped
onto the Cell pipeline once, then runs every clock cycle with no runtime
checks (section 5.3.2).  That puts the entire burden of rejecting bad
plans on the compiler — exactly as P4 RMT backends validate resource
allocation before a program ever touches a switch.  This package provides
that verification layer:

* :mod:`repro.analysis.findings` — the rule registry (stable ``THnnn``
  ids), :class:`Finding` and :class:`Report` (the shared diagnostic
  format of verifier findings and compile errors);
* :mod:`repro.analysis.verifier` — :class:`PlanVerifier`, the static
  checker over policy ASTs, emitted pipeline configurations and the
  analytical timing model; wired into
  :meth:`repro.core.compiler.PolicyCompiler.compile` (on by default,
  ``verify=False`` escape hatch);
* :mod:`repro.analysis.domains` / :mod:`repro.analysis.symbolic` — the
  abstract interpreter over policy DAGs: per-metric interval regions,
  the TH017–TH019 reachability/shadowing lints, :func:`semantic_diff`
  hot-swap classification (TH020) and cross-tenant overlap (TH021);
* :mod:`repro.analysis.conformance` — the TH015 "same state?" check
  over two tenants' checkpoint payloads;
* :mod:`repro.analysis.lint` — the ``python -m repro.analysis.lint`` CLI
  linting every bundled policy in :mod:`repro.policies`
  (``--semantic`` adds the cross-policy checks, ``--format json`` the
  machine-readable report CI consumes).
"""

from __future__ import annotations

from repro.analysis.conformance import (
    diff_tenant_payloads,
    verify_checkpoint_roundtrip,
)
from repro.analysis.domains import IntervalSet, Region
from repro.analysis.findings import RULES, Finding, Report, Rule, Severity
from repro.analysis.symbolic import (
    NodeFact,
    SemanticAnalysis,
    SemanticChange,
    SemanticDiff,
    analyze_policy,
    cross_tenant_overlap,
    semantic_diff,
    tenant_overlap_report,
)
from repro.analysis.verifier import (
    PlanVerifier,
    TableSchema,
    TenantSlice,
    verify_policy_compiles,
)

__all__ = [
    "RULES",
    "Finding",
    "Report",
    "Rule",
    "Severity",
    "IntervalSet",
    "Region",
    "NodeFact",
    "SemanticAnalysis",
    "SemanticChange",
    "SemanticDiff",
    "analyze_policy",
    "cross_tenant_overlap",
    "semantic_diff",
    "tenant_overlap_report",
    "PlanVerifier",
    "TableSchema",
    "TenantSlice",
    "verify_policy_compiles",
    "diff_tenant_payloads",
    "verify_checkpoint_roundtrip",
]

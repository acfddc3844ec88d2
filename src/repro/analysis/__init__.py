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
  checker of what a plan's *structure* is: policy ASTs, emitted pipeline
  configurations and the analytical timing model.  It reports the
  pipeline's resource limits (TH004–TH006) from their one statement in
  :mod:`repro.core.pipeline`, and routes no Benes network (TH007 is
  retired: every in-range, fan-out-legal wiring routes); wired into
  :meth:`repro.core.compiler.PolicyCompiler.compile` (on by default,
  ``verify=False`` escape hatch), so it runs on every placement;
* :mod:`repro.analysis.domains` / :mod:`repro.analysis.symbolic` — the
  abstract interpreter over policy DAGs: per-metric interval regions and
  the TH017–TH019 reachability/shadowing lints.  What a policy *means*
  is a function of the policy alone, so the analysis runs once when a
  policy is programmed (a
  :class:`~repro.switch.filter_module.FilterModule` keeps it on its
  policy clock); the hot-swap gate, the sanitizer and the TH021
  cross-tenant overlap check at admission all read that one copy;
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
    analyze_policy,
    cross_tenant_overlap,
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
    "analyze_policy",
    "cross_tenant_overlap",
    "tenant_overlap_report",
    "PlanVerifier",
    "TableSchema",
    "TenantSlice",
    "verify_policy_compiles",
    "diff_tenant_payloads",
    "verify_checkpoint_roundtrip",
]

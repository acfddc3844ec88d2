"""One test per registered rule: each trigger produces exactly that rule.

The acceptance contract for the rule registry is that every ``THnnn`` id
is independently reachable — a plan crafted to violate one invariant
yields that finding and no other, so CI grep filters and suppression
lists can key on ids without cross-talk.
"""

from __future__ import annotations

import pytest

from repro.analysis import RULES, PlanVerifier, Severity, TableSchema
from repro.analysis.verifier import verify_policy_compiles
from repro.core.cell import CellConfig
from repro.core.compiler import PolicyCompiler
from repro.core.operators import BinaryOp, RelOp
from repro.core.pipeline import PipelineConfig, PipelineParams, StageConfig
from repro.core.policy import (
    Binary,
    Policy,
    TableRef,
    intersection,
    max_of,
    min_of,
    predicate,
    union,
)
from repro.core.smbm import STORED_WORD_BITS
from repro.errors import CompilationError

SCHEMA = TableSchema(16, ("q", "load"))


def rules_of(report):
    return [f.rule for f in report.findings]


def test_registry_is_complete_and_stable():
    assert sorted(RULES) == [f"TH{i:03d}" for i in range(1, 22)]
    assert RULES["TH001"].name == "DeadOperator"
    assert RULES["TH001"].severity is Severity.WARNING
    assert RULES["TH008"].severity is Severity.ERROR
    assert RULES["TH012"].name == "CodegenIneligible"
    assert RULES["TH012"].severity is Severity.WARNING
    assert RULES["TH013"].name == "QuotaExceeded"
    assert RULES["TH013"].severity is Severity.ERROR
    assert RULES["TH014"].name == "CrossTenantWiring"
    assert RULES["TH014"].severity is Severity.ERROR
    assert RULES["TH015"].name == "CheckpointUnfaithful"
    assert RULES["TH015"].severity is Severity.ERROR
    assert RULES["TH016"].name == "ReplayHandlerMissing"
    assert RULES["TH016"].severity is Severity.ERROR
    assert RULES["TH017"].name == "UnreachablePredicate"
    assert RULES["TH017"].severity is Severity.WARNING
    assert RULES["TH018"].name == "ShadowedBranch"
    assert RULES["TH018"].severity is Severity.WARNING
    assert RULES["TH019"].name == "VacuousSetOp"
    assert RULES["TH019"].severity is Severity.WARNING
    assert RULES["TH020"].name == "SemanticHotSwapChange"
    assert RULES["TH020"].severity is Severity.ERROR
    assert RULES["TH021"].name == "CrossTenantOverlap"
    assert RULES["TH021"].severity is Severity.WARNING


def test_th001_dead_operator():
    """A programmed Cell unreachable from any live output is flagged."""
    compiled = PolicyCompiler().compile(
        Policy(min_of(TableRef(), "q"), name="t"), schema=SCHEMA,
    )
    verifier = PlanVerifier(schema=SCHEMA)
    report = verifier.verify_config(compiled.config, live_outputs=set())
    assert rules_of(report) == ["TH001"]
    assert report.ok and not report.clean  # warning-level
    assert report.findings[0].format().startswith("TH001 DeadOperator")


def test_th002_unknown_metric():
    verifier = PlanVerifier(schema=SCHEMA)
    report = verifier.verify_policy(
        Policy(min_of(TableRef(), "latency"), name="t")
    )
    assert rules_of(report) == ["TH002"]
    assert not report.ok


def test_th003_value_width_exceeded():
    verifier = PlanVerifier(schema=SCHEMA)
    too_wide = 1 << STORED_WORD_BITS
    report = verifier.verify_policy(
        Policy(predicate(TableRef(), "q", RelOp.LT, too_wide), name="t")
    )
    assert rules_of(report) == ["TH003"]


def test_th004_chain_overflow():
    params = PipelineParams(n=4, k=2, f=2, chain_length=2)
    verifier = PlanVerifier(params)
    report = verifier.verify_policy(
        Policy(min_of(TableRef(), "q", k=3), name="t")
    )
    assert rules_of(report) == ["TH004"]


def test_th005_fanout_exceeded():
    params = PipelineParams(n=4, k=1, f=2, chain_length=1)
    config = PipelineConfig(stages=[StageConfig(
        wiring={0: 0, 1: 0, 2: 0, 3: 1},  # line 0 feeds 3 ports, f=2
        cells=[CellConfig(), CellConfig()],
    )])
    report = PlanVerifier(params).verify_config(config)
    assert rules_of(report) == ["TH005"]
    assert report.findings[0].stage == 1


def test_th006_wiring_range():
    params = PipelineParams(n=4, k=1, f=2, chain_length=1)
    config = PipelineConfig(stages=[StageConfig(
        wiring={0: 7},  # source line 7 out of range for n=4
        cells=[CellConfig(), CellConfig()],
    )])
    report = PlanVerifier(params).verify_config(config)
    assert rules_of(report) == ["TH006"]


def test_th007_benes_unroutable():
    """A constrained (smaller-than-default) Benes network rejects a wiring
    the full-size network routes fine."""
    params = PipelineParams(n=4, k=1, f=2, chain_length=1)
    config = PipelineConfig(stages=[StageConfig(
        wiring={0: 0, 1: 0, 2: 1, 3: 2},  # legal fan-out 2
        cells=[CellConfig(), CellConfig()],
    )])
    assert PlanVerifier(params).verify_config(config).clean
    report = PlanVerifier(params, benes_size=4).verify_config(config)
    assert rules_of(report) == ["TH007"]


def test_th008_timing_closure():
    """The SMBM search path extrapolation misses 1 GHz at N=32768."""
    big = TableSchema(32768, ("q",))
    report = PlanVerifier(schema=big).verify_timing()
    assert rules_of(report) == ["TH008"]
    # ... while the paper's evaluated sizes close timing comfortably.
    assert PlanVerifier(schema=TableSchema(512, ("q",))).verify_timing().clean


def test_th009_capacity_overflow():
    """A policy needing more stages than the pipeline has is rejected with
    the capacity rule attached by the compiler's raise site."""
    params = PipelineParams(n=2, k=1, f=1, chain_length=1)
    deep = Policy(min_of(min_of(TableRef(), "q"), "q"), name="deep")
    report = verify_policy_compiles(deep, params, schema=TableSchema(16, ("q",)))
    assert rules_of(report) == ["TH009"]
    with pytest.raises(CompilationError) as exc_info:
        PolicyCompiler(params).compile(deep)
    assert exc_info.value.rule == "TH009"


def test_th010_unread_unit():
    """A NO_OP binary fuses both operands into one Cell but its mux only
    reads one of them — the other is programmed yet dropped."""
    root = Binary(
        opcode=BinaryOp.NO_OP, choice=0,
        left=min_of(TableRef(), "q"), right=max_of(TableRef(), "q"),
    )
    compiled = PolicyCompiler().compile(
        Policy(root, name="t"), schema=SCHEMA,
    )
    report = PlanVerifier(schema=SCHEMA).verify_compiled(compiled)
    assert rules_of(report) == ["TH010"]
    # warning-level: the compile succeeded and attached the lint finding.
    assert [f.rule for f in compiled.lint_findings] == ["TH010"]


def test_th011_contradictory_predicates():
    t = TableRef()
    root = intersection(
        predicate(t, "q", RelOp.LT, 10),
        predicate(t, "q", RelOp.GT, 20),
    )
    # One fact, one derivation: the id is retired into TH019, the symbolic
    # pass's region meet — the node-local AST checks stay silent.
    policy = Policy(root, name="t")
    assert PlanVerifier().verify_policy(policy).clean
    report = verify_policy_compiles(policy, schema=SCHEMA)
    assert [(f.rule, f.node_path) for f in report.findings] == [("TH019", ())]
    assert "retired" in RULES["TH011"].summary
    # Overlapping intervals are not flagged.
    ok = Policy(intersection(
        predicate(t, "q", RelOp.LT, 30),
        predicate(t, "q", RelOp.GT, 20),
    ), name="t")
    assert PlanVerifier().verify_policy(ok).clean
    assert verify_policy_compiles(ok, schema=SCHEMA).clean


def test_th012_codegen_ineligible():
    """Every specialization blocker yields a TH012 warning; eligible plans
    verify clean, and the kernel tier's own gate agrees with the lint on
    every blocker a policy can carry."""
    from repro.core.policy import random_pick
    from repro.engine.codegen import PlanCodegen
    from repro.errors import ConfigurationError

    verifier = PlanVerifier(schema=SCHEMA)
    compiler = PolicyCompiler()
    # Stateful unit: blocked.
    stateful = compiler.compile(
        Policy(random_pick(TableRef()), name="t"), schema=SCHEMA,
    )
    report = verifier.verify_codegen(stateful)
    assert rules_of(report) == ["TH012"]
    assert report.ok and not report.clean  # warning-level lint
    # Feedback register (an interior node tapped back to input[1]): blocked.
    examined = union(predicate(TableRef(), "q", RelOp.LT, 10),
                     min_of(TableRef(input_index=1), "q"))
    indexed = compiler.compile(
        Policy(min_of(examined, "q"), name="t", feedback={1: examined}),
        schema=SCHEMA,
    )
    assert rules_of(verifier.verify_codegen(indexed)) == ["TH012"]
    # Eligible plan: clean, and the kernel tier builds.
    plain = compiler.compile(
        Policy(min_of(TableRef(), "q"), name="t"), schema=SCHEMA,
    )
    assert verifier.verify_codegen(plain).clean
    assert PlanCodegen(plain.policy).plan_hash
    # Ineligible: the tier refuses with the lint's rule id and reasons.
    for blocked in (stateful, indexed):
        with pytest.raises(ConfigurationError, match="TH012") as exc_info:
            PlanCodegen(blocked.policy)
        for finding in verifier.verify_codegen(blocked).findings:
            assert finding.message in str(exc_info.value)


def test_error_findings_raise_with_shared_context():
    """Error-level findings surface as CompilationError carrying the same
    rule/stage context as the compiler's own raise sites."""
    verifier = PlanVerifier(schema=SCHEMA)
    report = verifier.verify_policy(
        Policy(min_of(TableRef(), "latency"), name="t")
    )
    with pytest.raises(CompilationError) as exc_info:
        report.raise_if_errors()
    assert exc_info.value.rule == "TH002"
    assert "TH002 UnknownMetric" in str(exc_info.value)


def test_compile_rejects_unknown_metric_by_default():
    """compile(verify=True, schema=...) rejects bad plans up front."""
    with pytest.raises(CompilationError) as exc_info:
        PolicyCompiler().compile(
            Policy(min_of(TableRef(), "latency"), name="t"), schema=SCHEMA,
        )
    assert exc_info.value.rule == "TH002"
    # The escape hatch still compiles it (evaluation would fail later).
    compiled = PolicyCompiler().compile(
        Policy(min_of(TableRef(), "latency"), name="t"), verify=False,
    )
    assert compiled.lint_findings == ()


def _chain_policy() -> Policy:
    table = TableRef()
    return Policy(
        min_of(intersection(
            predicate(table, "q", RelOp.LT, 5),
            predicate(table, "load", RelOp.GT, 2),
        ), "q"),
        name="chain",
    )


def _wide_policy() -> Policy:
    """Three predicates: more unary sides than one Cell column's stage-1
    Cell offers, so an unconfined compile spills into column 1."""
    table = TableRef()
    return Policy(
        intersection(intersection(
            predicate(table, "q", RelOp.LT, 5),
            predicate(table, "load", RelOp.GT, 2),
        ), predicate(table, "q", RelOp.GT, 1)),
        name="wide",
    )


def test_th013_cell_quota_exceeded():
    """A plan occupying more physical Cells than the tenant's quota."""
    from repro.analysis import TenantSlice

    compiled = PolicyCompiler().compile(_chain_policy(), schema=SCHEMA)
    verifier = PlanVerifier(schema=SCHEMA)
    tenant_slice = TenantSlice(
        columns=frozenset({0, 1}), smbm_quota=SCHEMA.capacity, cell_quota=2
    )
    report = verifier.verify_slice(compiled, tenant_slice)
    assert rules_of(report) == ["TH013"]
    assert not report.ok
    assert "quota of 2" in report.findings[0].message


def test_th013_smbm_quota_exceeded():
    """A table bigger than the tenant's row quota."""
    from repro.analysis import TenantSlice

    compiled = PolicyCompiler().compile(_chain_policy(), schema=SCHEMA)
    verifier = PlanVerifier(schema=SCHEMA)
    tenant_slice = TenantSlice(columns=frozenset({0, 1}), smbm_quota=8)
    report = verifier.verify_slice(compiled, tenant_slice)
    assert rules_of(report) == ["TH013"]
    assert "row quota 8" in report.findings[0].message


def test_th014_cross_tenant_wiring():
    """An unconfined plan spilling outside a one-column slice: both TH014
    shapes fire (foreign occupation and foreign line taps), and nothing
    else once the Cell quota is generous."""
    from repro.analysis import TenantSlice

    compiled = PolicyCompiler().compile(_wide_policy(), schema=SCHEMA)
    verifier = PlanVerifier(schema=SCHEMA)
    tenant_slice = TenantSlice(
        columns=frozenset({0}), smbm_quota=SCHEMA.capacity, cell_quota=8
    )
    report = verifier.verify_slice(compiled, tenant_slice)
    assert set(rules_of(report)) == {"TH014"}
    assert not report.ok
    messages = [f.message for f in report.findings]
    assert any("occupies Cell column 1" in m for m in messages)
    assert any("taps line" in m for m in messages)


def test_confined_compile_is_slice_clean():
    """The same spilling plan, compiled with the slice's reserved Cells
    dead and its inputs restricted, stays inside the strip — and then
    verifies clean: confinement plus verification is the static isolation
    guarantee.  A slice too small for the plan fails *at compile time*
    (the confinement is physical), never silently escapes."""
    from repro.analysis import TenantSlice

    params = PipelineParams(n=8)
    tenant_slice = TenantSlice(
        columns=frozenset({0, 1}), smbm_quota=SCHEMA.capacity
    )
    compiled = PolicyCompiler(params).compile(
        _wide_policy(), schema=SCHEMA,
        dead_cells=tenant_slice.reserved_cells(params),
        input_lines=tenant_slice.lines,
    )
    verifier = PlanVerifier(params, schema=SCHEMA)
    report = verifier.verify_slice(compiled, tenant_slice)
    assert report.clean
    # The same plan cannot be squeezed into a single column: the compiler
    # itself rejects the placement rather than spilling out of the slice.
    narrow = TenantSlice(columns=frozenset({0}), smbm_quota=SCHEMA.capacity)
    with pytest.raises(CompilationError):
        PolicyCompiler(params).compile(
            _wide_policy(), schema=SCHEMA,
            dead_cells=narrow.reserved_cells(params),
            input_lines=narrow.lines,
        )

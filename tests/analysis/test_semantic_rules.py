"""The symbolic policy-semantics analyzer: rules TH017-TH021.

Per-rule trigger and non-trigger cases, the hot-swap/migration serving
gates, emit de-duplication, and the differential soundness contract: a
region the analyzer calls unreachable must receive zero packets on the
interpreted, batched and codegen serving paths, over randomized policies
and tables.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro import obs
from repro.analysis import RULES, TableSchema
from repro.analysis.domains import IntervalSet, Region
from repro.analysis.symbolic import (
    SemanticChange,
    analyze_policy,
    cross_tenant_overlap,
    semantic_diff,
    tenant_overlap_report,
)
from repro.core.operators import RelOp
from repro.core.policy import (
    Conditional,
    Policy,
    PolicyInterpreter,
    TableRef,
    difference,
    intersection,
    max_of,
    min_of,
    predicate,
    random_pick,
    round_robin,
    union,
)
from repro.core.smbm import SMBM, STORED_WORD_BITS
from repro.engine.batch import META_FILTER_INPUT, META_FILTER_REQUEST
from repro.errors import CompilationError, IntegrityError
from repro.rmt.packet import Packet
from repro.serving.backend import ScalarBackend
from repro.serving.controller import Controller
from repro.serving.migration import LiveMigration
from repro.switch.filter_module import FilterModule
from repro.tenancy.manager import TenantManager, TenantSpec

CAPACITY = 16
METRICS = ("cpu", "mem")
SCHEMA = TableSchema(CAPACITY, METRICS)
WORD_MAX = (1 << STORED_WORD_BITS) - 1


def rules_of(report):
    return [f.rule for f in report.findings]


def _dead_predicate(attr="cpu"):
    """A chained predicate pair with provably-disjoint admitted regions."""
    return predicate(
        predicate(TableRef(), attr, RelOp.LT, 10), attr, RelOp.GT, 20
    )


# -- TH017 UnreachablePredicate --------------------------------------------------------


def test_th017_fires_on_contradictory_chained_predicates():
    analysis = analyze_policy(Policy(_dead_predicate(), name="dead"),
                              schema=SCHEMA)
    assert rules_of(analysis.report) == ["TH017"]
    finding = analysis.report.findings[0]
    assert finding.node_path == ()  # the outer predicate is the root
    assert "[0..9]" in finding.message and "[21..max]" in finding.message
    assert analysis.root_region.empty
    assert () in analysis.unreachable_nodes()


def test_th017_node_path_points_at_the_dead_arm():
    live = predicate(TableRef(), "mem", RelOp.LT, 50)
    analysis = analyze_policy(
        Policy(union(live, _dead_predicate()), name="half-dead"),
        schema=SCHEMA,
    )
    assert rules_of(analysis.report) == ["TH017"]
    assert analysis.report.findings[0].node_path == (1,)
    # The union's own region survives through the live arm.
    assert not analysis.root_region.empty
    assert (1,) in analysis.unreachable_nodes()


def test_th017_does_not_fire_on_satisfiable_chains():
    chain = predicate(
        predicate(TableRef(), "cpu", RelOp.LT, 70), "cpu", RelOp.GT, 20
    )
    analysis = analyze_policy(Policy(chain, name="band"), schema=SCHEMA)
    assert analysis.report.clean
    assert analysis.root_region.get("cpu") == IntervalSet.of([(21, 69)])


def test_both_dag_walkers_visit_each_node_once_without_recursing():
    """A unary chain twice as deep as the interpreter's recursion limit,
    and a 40-deep diamond with 2^40 root-to-leaf paths: the symbolic pass
    and the AST checks both return at once, each node at its first
    pre-order path, findings children-first."""
    import time

    from repro.analysis import PlanVerifier

    def walk(policy):
        # Plain values only: a failing assert must not repr() the DAG.
        analysis = analyze_policy(policy, schema=SCHEMA)
        report = PlanVerifier(schema=SCHEMA).verify_policy(policy)
        return (
            len(analysis.facts),
            max(analysis.node_paths.values(), key=len),
            [(f.rule, f.node_path) for f in analysis.report.findings],
            [(f.rule, f.node_path) for f in report.findings],
        )

    started = time.perf_counter()
    depth = 2000
    chain = predicate(_dead_predicate(), "cpu", RelOp.LT, 1 << STORED_WORD_BITS)
    for _ in range(depth):
        chain = min_of(chain, "cpu")
    nodes, deepest, semantic, structural = walk(Policy(chain, name="chain"))
    assert nodes == depth + 4 and deepest == (0,) * (depth + 3)
    assert semantic == [("TH017", (0,) * (depth + 1))]
    assert structural == [("TH003", (0,) * depth)]

    shared = predicate(TableRef(), "cpu", RelOp.LT, 10)
    for _ in range(40):
        shared = union(shared, shared)
    nodes, deepest, semantic, structural = walk(Policy(
        intersection(shared, predicate(TableRef(), "cpu", RelOp.GT, 20)),
        name="diamonds",
    ))
    assert nodes == 45 and deepest == (0,) * 42
    assert semantic == [("TH019", ())] and structural == []
    assert time.perf_counter() - started < 1.0


# -- TH018 ShadowedBranch --------------------------------------------------------------


def test_th018_fires_when_primary_is_guaranteed():
    table = TableRef()
    policy = Policy(
        Conditional(min_of(table, "cpu"),
                    predicate(table, "cpu", RelOp.LT, 50)),
        name="shadowed",
    )
    analysis = analyze_policy(policy, schema=SCHEMA)
    assert rules_of(analysis.report) == ["TH018"]
    finding = analysis.report.findings[0]
    assert finding.node_path == (1,)  # the fallback arm
    assert "shadowed" in finding.message


def test_th018_fires_when_primary_is_provably_empty():
    table = TableRef()
    policy = Policy(
        Conditional(_dead_predicate(), predicate(table, "mem", RelOp.GT, 1)),
        name="dead-primary",
    )
    analysis = analyze_policy(policy, schema=SCHEMA)
    assert set(rules_of(analysis.report)) == {"TH017", "TH018"}
    th018 = [f for f in analysis.report.findings if f.rule == "TH018"]
    assert th018[0].node_path == (0,)  # the primary arm
    assert "fallback" in th018[0].message
    # The root's region is the fallback's: the primary never contributes.
    assert analysis.root_region.get("mem") == IntervalSet.of([(2, WORD_MAX)])


def test_th018_does_not_fire_on_a_live_conditional():
    # The l4lb shape: both arms reachable, neither provably selected.
    table = TableRef()
    eligible = intersection(
        predicate(table, "cpu", RelOp.LT, 70),
        predicate(table, "mem", RelOp.GT, 16),
    )
    policy = Policy(
        Conditional(random_pick(eligible), random_pick(table)), name="l4lb"
    )
    assert analyze_policy(policy, schema=SCHEMA).report.clean


# -- TH019 VacuousSetOp ----------------------------------------------------------------


def test_th019_fires_on_provably_empty_intersection():
    # The right arm hides its predicate under a selector: only a region
    # meet, not a comparison of sibling predicates, sees the contradiction.
    table = TableRef()
    policy = Policy(
        intersection(
            predicate(table, "cpu", RelOp.LT, 10),
            min_of(predicate(table, "cpu", RelOp.GT, 20), "mem"),
        ),
        name="vacuous",
    )
    analysis = analyze_policy(policy, schema=SCHEMA)
    assert rules_of(analysis.report) == ["TH019"]
    assert analysis.report.findings[0].node_path == ()
    assert analysis.root_region.empty


def test_th019_fires_on_identity_difference():
    table = TableRef()
    policy = Policy(
        difference(predicate(table, "cpu", RelOp.LT, 50), _dead_predicate()),
        name="identity-diff",
    )
    analysis = analyze_policy(policy, schema=SCHEMA)
    assert set(rules_of(analysis.report)) == {"TH017", "TH019"}
    th019 = [f for f in analysis.report.findings if f.rule == "TH019"]
    assert "empty set" in th019[0].message
    # The difference is an identity: the left region passes through.
    assert analysis.root_region.get("cpu") == IntervalSet.of([(0, 49)])


def test_th019_fires_on_subtract_everything():
    table = TableRef()
    policy = Policy(
        difference(predicate(table, "cpu", RelOp.LT, 50), table),
        name="minus-all",
    )
    analysis = analyze_policy(policy, schema=SCHEMA)
    assert "TH019" in rules_of(analysis.report)
    assert analysis.root_region.empty


def test_th019_does_not_fire_on_overlapping_operands():
    table = TableRef()
    policy = Policy(
        intersection(
            predicate(table, "cpu", RelOp.LT, 50),
            predicate(table, "cpu", RelOp.GT, 20),
        ),
        name="band",
    )
    assert analyze_policy(policy, schema=SCHEMA).report.clean


# -- TH020 SemanticHotSwapChange -------------------------------------------------------


def _pred(attr, rel_op, val, name):
    return Policy(predicate(TableRef(), attr, rel_op, val), name=name)


def test_semantic_diff_classifies_known_pairs():
    old = _pred("cpu", RelOp.LT, 70, "old")
    assert semantic_diff(
        old, _pred("cpu", RelOp.LE, 69, "same"), schema=SCHEMA
    ).change is SemanticChange.EQUIVALENT
    assert semantic_diff(
        old, _pred("cpu", RelOp.LT, 50, "tighter"), schema=SCHEMA
    ).change is SemanticChange.NARROWING
    diff = semantic_diff(old, _pred("cpu", RelOp.LT, 90, "looser"),
                         schema=SCHEMA)
    assert diff.change is SemanticChange.WIDENING
    assert "cpu: [0..69] -> [0..89]" in diff.describe()


def test_semantic_diff_is_a_region_diff_not_a_structural_one():
    # min vs max over the same filter admit the same region: EQUIVALENT,
    # even though the selected rows differ packet to packet.
    base = predicate(TableRef(), "cpu", RelOp.LT, 70)
    other = predicate(TableRef(), "cpu", RelOp.LT, 70)
    diff = semantic_diff(
        Policy(min_of(base, "cpu"), name="least"),
        Policy(max_of(other, "cpu"), name="most"),
        schema=SCHEMA,
    )
    assert diff.change is SemanticChange.EQUIVALENT


def _manager_with_tenant(policy=None):
    manager = TenantManager(METRICS, smbm_capacity=CAPACITY)
    policy = policy or _pred("cpu", RelOp.LT, 70, "base")
    manager.admit(TenantSpec("t", policy, smbm_quota=8))
    return manager


def test_hot_swap_rejects_widening_when_semantic_change_disallowed():
    manager = _manager_with_tenant()
    wide = _pred("cpu", RelOp.LT, 90, "wide")
    with pytest.raises(CompilationError, match="TH020") as exc_info:
        manager.hot_swap("t", wide, allow_semantic_change=False)
    assert exc_info.value.rule == "TH020"
    # The live policy is untouched by the rejected swap.
    assert manager.get("t").module.policy.name == "base"
    assert manager.get("t").module.plan_epoch == 0


def test_hot_swap_allows_narrowing_and_equivalent_swaps_under_gate():
    manager = _manager_with_tenant()
    assert manager.hot_swap(
        "t", _pred("cpu", RelOp.LT, 50, "tight"),
        allow_semantic_change=False,
    ) == 1
    assert manager.hot_swap(
        "t", _pred("cpu", RelOp.LE, 49, "same"),
        allow_semantic_change=False,
    ) == 2


def test_hot_swap_allows_widening_by_default():
    manager = _manager_with_tenant()
    assert manager.hot_swap("t", _pred("cpu", RelOp.LT, 90, "wide")) == 1


def test_backend_hot_swap_escalates_reachability_lints_to_errors():
    backend = ScalarBackend(TenantManager(METRICS, smbm_capacity=CAPACITY))
    backend.program_tenant(
        TenantSpec("t", _pred("cpu", RelOp.LT, 70, "base"), smbm_quota=8)
    )
    dead = Policy(_dead_predicate(), name="dead")
    with pytest.raises(CompilationError, match="TH017"):
        backend.hot_swap("t", dead)
    with pytest.raises(CompilationError, match="TH020"):
        backend.hot_swap("t", _pred("cpu", RelOp.LT, 90, "wide"),
                         allow_semantic_change=False)
    assert backend.hot_swap("t", _pred("cpu", RelOp.LT, 90, "wide")) == 1


def test_controller_hot_swap_passes_the_semantic_gate_through():
    backend = ScalarBackend(TenantManager(METRICS, smbm_capacity=CAPACITY))

    async def scenario():
        async with Controller(backend) as ctl:
            await ctl.add_tenant(
                TenantSpec("t", _pred("cpu", RelOp.LT, 70, "base"),
                           smbm_quota=8)
            )
            with pytest.raises(CompilationError, match="TH020"):
                await ctl.hot_swap("t", _pred("cpu", RelOp.LT, 90, "wide"),
                                   allow_semantic_change=False)
            return await ctl.hot_swap(
                "t", _pred("cpu", RelOp.LT, 50, "tight"),
                allow_semantic_change=False,
            )

    assert asyncio.run(scenario()) == 1


def test_migration_cutover_gate_rejects_semantic_divergence():
    src = ScalarBackend(TenantManager(METRICS, smbm_capacity=CAPACITY))
    dst = ScalarBackend(TenantManager(METRICS, smbm_capacity=CAPACITY))
    src.program_tenant(
        TenantSpec("t", _pred("cpu", RelOp.LT, 70, "base"), smbm_quota=8)
    )
    migration = LiveMigration(src, dst, "t")
    migration.begin()
    # The same number of swaps lands on each side — epochs agree — but
    # to regionally different policies: the policy document is part of
    # the tenant's state, so the one TH015 comparison sees it.
    src.hot_swap("t", _pred("cpu", RelOp.LT, 50, "narrow-50"))
    dst.hot_swap("t", _pred("cpu", RelOp.LT, 60, "narrow-60"))
    with pytest.raises(IntegrityError, match="'policy' diverges") as exc:
        migration.cutover()
    assert "plan_epoch" not in str(exc.value)


def test_migration_cutover_gate_is_bit_level_not_semantic():
    """The gate asks "same state?", not "same region?": two swaps that
    bypassed the migration are a divergence even when the plans admit the
    same rows (a swap through the migration lands one document on both)."""
    src = ScalarBackend(TenantManager(METRICS, smbm_capacity=CAPACITY))
    dst = ScalarBackend(TenantManager(METRICS, smbm_capacity=CAPACITY))
    src.program_tenant(
        TenantSpec("t", _pred("cpu", RelOp.LT, 70, "base"), smbm_quota=8)
    )
    migration = LiveMigration(src, dst, "t")
    migration.begin()
    src.hot_swap("t", _pred("cpu", RelOp.LT, 50, "lt"))
    dst.hot_swap("t", _pred("cpu", RelOp.LE, 49, "le"))  # same region
    with pytest.raises(IntegrityError, match="'policy' diverges"):
        migration.cutover()
    migration.hot_swap("t", _pred("cpu", RelOp.LT, 50, "lt"))
    assert migration.cutover()["plan_epoch"] == 2


# -- TH021 CrossTenantOverlap ----------------------------------------------------------


def test_cross_tenant_overlap_on_shared_metric():
    a = _pred("cpu", RelOp.LT, 50, "a")
    b = Policy(
        intersection(
            predicate(TableRef(), "cpu", RelOp.GT, 30),
            predicate(TableRef(), "cpu", RelOp.LT, 60),
        ),
        name="b",
    )
    overlap = cross_tenant_overlap(a, b, schema=SCHEMA)
    assert overlap is not None
    assert overlap.get("cpu") == IntervalSet.of([(31, 49)])


def test_no_overlap_for_disjoint_or_uncomparable_policies():
    a = _pred("cpu", RelOp.LT, 20, "a")
    assert cross_tenant_overlap(
        a, _pred("cpu", RelOp.GT, 40, "b"), schema=SCHEMA
    ) is None  # disjoint on the shared metric
    assert cross_tenant_overlap(
        a, _pred("mem", RelOp.GT, 40, "c"), schema=SCHEMA
    ) is None  # no shared constrained metric: no comparable claim
    assert cross_tenant_overlap(
        a, Policy(_dead_predicate(), name="dead"), schema=SCHEMA
    ) is None  # an empty region claims nothing


def test_tenant_overlap_report_is_pairwise():
    report = tenant_overlap_report(
        [
            ("a", _pred("cpu", RelOp.LT, 50, "a")),
            ("b", _pred("cpu", RelOp.GT, 30, "b")),
            ("c", _pred("mem", RelOp.GT, 10, "c")),
        ],
        schema=SCHEMA,
    )
    assert rules_of(report) == ["TH021"]  # only the (a, b) pair competes
    assert "'a'" in report.findings[0].message
    assert "'b'" in report.findings[0].message


def test_manager_overlap_report_and_admission_warning():
    manager = TenantManager(METRICS, smbm_capacity=32)
    manager.admit(TenantSpec("a", _pred("cpu", RelOp.LT, 50, "pa"),
                             smbm_quota=8))
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        manager.admit(TenantSpec("b", _pred("cpu", RelOp.GT, 30, "pb"),
                                 smbm_quota=8))
        # Admission is not rejected — TH021 is advisory — but counted.
        snapshot = obs.snapshot(registry)
    assert "b" in manager
    overlaps = [
        (series, value)
        for series, value in snapshot.get("counters", {}).items()
        if series.startswith("lint_findings_total") and "TH021" in series
    ]
    assert overlaps and overlaps[0][1] == 1
    report = manager.overlap_report()
    assert rules_of(report) == ["TH021"]


# -- emit de-duplication ---------------------------------------------------------------


def test_repeat_compiles_do_not_double_count_findings():
    policy = Policy(_dead_predicate(), name="dead")
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        for _ in range(3):  # identical (rule, policy, node_path) each time
            analysis = analyze_policy(policy, schema=SCHEMA)
            analysis.report.emit()
        snapshot = obs.snapshot(registry)
    counts = {
        series: value
        for series, value in snapshot.get("counters", {}).items()
        if series.startswith("lint_findings_total") and "TH017" in series
    }
    assert list(counts.values()) == [1]


def test_distinct_findings_still_count_separately():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        # Two dead predicates at different node paths: two real findings.
        table = TableRef()
        policy = Policy(
            union(_dead_predicate("cpu"), _dead_predicate("mem")),
            name="double-dead",
        )
        analyze_policy(policy, schema=SCHEMA).report.emit()
        snapshot = obs.snapshot(registry)
    counts = [
        value
        for series, value in snapshot.get("counters", {}).items()
        if series.startswith("lint_findings_total") and "TH017" in series
    ]
    assert counts == [2]


def test_null_registry_does_not_poison_the_dedup_cache():
    policy = Policy(_dead_predicate(), name="dead")
    analyze_policy(policy, schema=SCHEMA).report.emit()  # null: discarded
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        analyze_policy(policy, schema=SCHEMA).report.emit()
        snapshot = obs.snapshot(registry)
    counts = [
        value
        for series, value in snapshot.get("counters", {}).items()
        if series.startswith("lint_findings_total") and "TH017" in series
    ]
    assert counts == [1]


# -- live-range seeding ----------------------------------------------------------------


def test_live_table_ranges_tighten_the_verdict():
    smbm = SMBM(CAPACITY, METRICS)
    smbm.add(1, {"cpu": 30, "mem": 5})
    smbm.add(2, {"cpu": 40, "mem": 9})
    # Statically satisfiable, dead against the live value range.
    policy = Policy(
        predicate(TableRef(), "cpu", RelOp.GT, 80), name="hot-only"
    )
    static = analyze_policy(policy, schema=SCHEMA)
    assert static.report.clean
    live = analyze_policy(policy, schema=SCHEMA, smbm=smbm)
    assert rules_of(live.report) == ["TH017"]
    assert live.table_version == smbm.version
    assert live.root_region.empty


# -- differential soundness ------------------------------------------------------------


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ATTRS = METRICS
VALUES = (0, 1, 7, 25, 100, 150, 199, WORD_MAX)


def _leaf():
    return st.just(None).map(lambda _: TableRef())


def _unary(child):
    return st.one_of(
        st.tuples(child, st.sampled_from(ATTRS),
                  st.sampled_from(tuple(RelOp)), st.sampled_from(VALUES))
        .map(lambda t: predicate(t[0], t[1], t[2], t[3])),
        st.tuples(child, st.sampled_from(ATTRS),
                  st.integers(min_value=1, max_value=4))
        .map(lambda t: min_of(t[0], t[1], k=t[2])),
        st.tuples(child, st.sampled_from(ATTRS),
                  st.integers(min_value=1, max_value=4))
        .map(lambda t: max_of(t[0], t[1], k=t[2])),
        st.tuples(child, st.integers(min_value=1, max_value=4))
        .map(lambda t: random_pick(t[0], k=t[1])),
        st.tuples(child, st.sampled_from(ATTRS))
        .map(lambda t: round_robin(t[0], t[1])),
    )


def _binary(child):
    op = st.sampled_from((union, intersection, difference))
    return st.tuples(op, child, child).map(lambda t: t[0](t[1], t[2]))


def sem_policies():
    node = st.recursive(
        _leaf(),
        lambda child: st.one_of(_unary(child), _binary(child)),
        max_leaves=6,
    )
    conditional = st.tuples(node, node).map(
        lambda t: Conditional(t[0], t[1])
    )
    return st.one_of(node, conditional).map(
        lambda root: Policy(root, name="random")
    )


def _random_table(rng: random.Random, rows: int) -> SMBM:
    smbm = SMBM(CAPACITY, METRICS)
    for rid in rng.sample(range(CAPACITY), rows):
        smbm.add(rid, {m: rng.randrange(256) for m in METRICS})
    return smbm


def _assert_rows_in_region(vec, region, smbm):
    bits = vec.value
    while bits:
        low = bits & -bits
        bits ^= low
        rid = low.bit_length() - 1
        assert rid in smbm
        assert region.contains(smbm.metrics_of(rid)), (
            f"row {rid} {smbm.metrics_of(rid)} escaped region "
            f"{region.describe()}"
        )


@given(policy=sem_policies(),
       seed=st.integers(min_value=0, max_value=2**32),
       rows=st.integers(min_value=0, max_value=CAPACITY))
@settings(max_examples=1000, deadline=None)
def test_abstract_regions_are_sound_over_random_policies(policy, seed, rows):
    """The tentpole property, >=1000 randomized policies: every concrete
    per-node output is contained in its abstract region; every node with
    an empty region receives zero rows; a guaranteed root over a
    non-empty table produces a non-empty output."""
    rng = random.Random(seed)
    smbm = _random_table(rng, rows)
    analysis = analyze_policy(policy, schema=SCHEMA)
    interpreter = PolicyInterpreter(policy)
    for _ in range(3):  # stateful units advance; soundness holds per call
        record = {}
        out = interpreter.evaluate(smbm, record=record)
        for node_id, vec in record.items():
            fact = analysis.facts[node_id]
            _assert_rows_in_region(vec, fact.region, smbm)
            if fact.region.empty:
                assert vec.value == 0
        if analysis.root.region.empty:
            assert out.value == 0
        if analysis.root.guaranteed and len(smbm) > 0:
            assert out.value != 0


@given(policy=sem_policies(),
       seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_live_seeded_regions_are_sound(policy, seed):
    """Soundness with the seed tightened to the live value ranges."""
    rng = random.Random(seed)
    smbm = _random_table(rng, rng.randrange(CAPACITY + 1))
    analysis = analyze_policy(policy, schema=SCHEMA, smbm=smbm)
    record = {}
    out = interpreter_out = PolicyInterpreter(policy).evaluate(
        smbm, record=record
    )
    for node_id, vec in record.items():
        fact = analysis.facts[node_id]
        _assert_rows_in_region(vec, fact.region, smbm)
        if fact.region.empty:
            assert vec.value == 0
    if analysis.root.region.empty:
        assert out.value == 0
    assert interpreter_out is out


def test_unreachable_regions_receive_zero_packets_on_all_three_paths():
    """The half-dead union across interpreted, batched and codegen
    serving, sanitizer armed: the dead arm never contributes a row and
    the containment assert stays silent."""
    def build():
        return Policy(
            union(_dead_predicate("cpu"),
                  predicate(TableRef(), "mem", RelOp.LT, 128)),
            name="half-dead",
        )

    dead_path = (0,)
    outputs = []
    for codegen in (False, True):
        rng = random.Random(7)  # identical tables on both paths
        policy = build()
        module = FilterModule(CAPACITY, METRICS, policy,
                              sanitize=True, codegen=codegen)
        for rid in range(10):
            module.update_resource(
                rid, {m: rng.randrange(256) for m in METRICS}
            )
        scalar = module.evaluate()  # interpreted (or codegen+oracle) path
        module.sanitize_check()
        # The batched path, masked rows included.
        packets = [
            Packet(metadata={META_FILTER_REQUEST: 1}),
            Packet(metadata={META_FILTER_REQUEST: 1,
                             META_FILTER_INPUT: 0b1010101010}),
        ]
        module.evaluate_batch(packets)
        outputs.append(scalar.value)
        # Zero-hit witness for the dead arm on a parallel interpreter.
        analysis = analyze_policy(policy, schema=SCHEMA)
        dead_node = policy.root.children()[dead_path[0]]
        assert analysis.fact_at(dead_node).region.empty
        record = {}
        PolicyInterpreter(policy).evaluate(module.smbm, record=record)
        assert record[dead_node.node_id].value == 0
    assert outputs[0] == outputs[1]  # interpreted == codegen


def test_sanitizer_catches_region_escapes():
    """Wiring check: force a bogus (empty) cached region and confirm the
    containment assert actually trips on the serving path."""
    policy = _pred("cpu", RelOp.LT, 200, "loose")
    module = FilterModule(CAPACITY, METRICS, policy, sanitize=True)
    module.update_resource(1, {"cpu": 10, "mem": 10})
    assert module.evaluate().value != 0  # sound region: serves fine
    module._region = Region.bottom()
    # A write moves the table version: the next evaluate re-runs the
    # sanitized path rather than serve the memoized (pre-corruption) result.
    module.update_resource(2, {"cpu": 20, "mem": 20})
    with pytest.raises(IntegrityError, match="feasible region"):
        module.evaluate()


def test_sanitized_serving_stays_green_on_bundled_policies():
    """The soundness assert is not over-strict: a clean bundled-style
    policy serves under sanitize+codegen across table churn."""
    table = TableRef()
    policy = Policy(
        min_of(intersection(predicate(table, "cpu", RelOp.LT, 70),
                            predicate(table, "mem", RelOp.GT, 16)), "cpu"),
        name="sliced-lb",
    )
    module = FilterModule(CAPACITY, METRICS, policy, sanitize=True)
    rng = random.Random(3)
    for i in range(40):
        module.update_resource(i % 8, {"cpu": rng.randrange(100),
                                       "mem": rng.randrange(64)})
        module.evaluate()
        if i % 5 == 0:
            module.sanitize_check()

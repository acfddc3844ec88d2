"""Tests for the policy compiler (section 5.3.2, Figure 14).

The central property: for any compilable policy built from deterministic
operators, the configured hardware pipeline computes exactly what the
reference interpreter computes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import CompiledPolicy, MuxPlan, PolicyCompiler
from repro.core.operators import BinaryOp, RelOp, UnaryOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Binary,
    Conditional,
    Policy,
    PolicyInterpreter,
    TableRef,
    Unary,
    intersection,
    max_of,
    min_of,
    predicate,
    random_pick,
    union,
)
from repro.core.smbm import SMBM
from repro.errors import CompilationError, ConfigurationError

CAP = 16
METRICS = ("cpu", "mem", "bw")


def build_smbm(rows: dict[int, tuple[int, int, int]]) -> SMBM:
    smbm = SMBM(CAP, METRICS)
    for rid, (c, m, b) in rows.items():
        smbm.add(rid, {"cpu": c, "mem": m, "bw": b})
    return smbm


DEFAULT_ROWS = {
    0: (50, 4, 5), 1: (80, 1, 9), 2: (30, 6, 1),
    3: (90, 8, 7), 4: (10, 2, 3), 5: (60, 5, 8),
}


def fig14_policy() -> Policy:
    """Policy 2 of section 7.2.2 — the Figure 14 worked example."""
    servers = TableRef()
    eligible = intersection(
        intersection(
            predicate(servers, "cpu", "<", 70),
            predicate(servers, "mem", ">", 1),
        ),
        predicate(servers, "bw", ">", 2),
    )
    return Policy(
        Conditional(random_pick(eligible), random_pick(TableRef())),
        name="l4lb-policy2",
    )


class TestFigure14:
    def test_compiles_on_figure14_dimensions(self):
        """The paper maps this policy onto 3 stages x 4 lines (Figure 14)."""
        compiler = PolicyCompiler(PipelineParams(n=4, k=3, f=2, chain_length=4))
        compiled = compiler.compile(fig14_policy())
        assert isinstance(compiled, CompiledPolicy)
        assert isinstance(compiled.mux, MuxPlan)

    def test_selects_only_eligible_servers(self):
        smbm = build_smbm(DEFAULT_ROWS)
        compiler = PolicyCompiler(PipelineParams(n=4, k=3, f=2, chain_length=4))
        compiled = compiler.compile(fig14_policy())
        # Eligible (cpu<70, mem>1, bw>2): ids 0 (50,4,5), 4 (10,2,3), 5 (60,5,8).
        for _ in range(40):
            assert compiled.select(smbm) in {0, 4, 5}

    def test_falls_back_when_no_server_eligible(self):
        smbm = build_smbm({0: (99, 0, 0), 1: (99, 0, 0)})
        compiler = PolicyCompiler(PipelineParams(n=4, k=3, f=2, chain_length=4))
        compiled = compiler.compile(fig14_policy())
        for _ in range(20):
            assert compiled.select(smbm) in {0, 1}

    def test_describe_mentions_mux(self):
        compiled = PolicyCompiler(
            PipelineParams(n=4, k=3, f=2, chain_length=4)
        ).compile(fig14_policy())
        assert "RMT mux" in compiled.describe()


class TestResourceLimits:
    def test_too_few_stages_rejected(self):
        policy = Policy(min_of(min_of(min_of(TableRef(), "cpu"), "mem"), "bw"))
        with pytest.raises(CompilationError):
            PolicyCompiler(PipelineParams(n=2, k=2, f=2, chain_length=2)).compile(
                policy
            )

    def test_k_exceeding_chain_rejected(self):
        policy = Policy(min_of(TableRef(), "cpu", k=8))
        with pytest.raises(CompilationError):
            PolicyCompiler(PipelineParams(n=2, k=2, f=2, chain_length=4)).compile(
                policy
            )

    def test_too_many_parallel_ops_rejected(self):
        """More simultaneous stage-1 operators than cell sides."""
        t = TableRef()
        wide = union(
            union(predicate(t, "cpu", "<", 1), predicate(t, "mem", "<", 1)),
            union(predicate(t, "bw", "<", 1), predicate(t, "cpu", ">", 1)),
        )
        with pytest.raises(CompilationError):
            PolicyCompiler(PipelineParams(n=2, k=2, f=1, chain_length=2)).compile(
                Policy(wide)
            )

    def test_error_messages_name_the_resource(self):
        policy = Policy(min_of(TableRef(), "cpu", k=8))
        with pytest.raises(CompilationError, match="chain length"):
            PolicyCompiler(PipelineParams(n=2, k=2, f=2, chain_length=4)).compile(
                policy
            )


class TestEquivalenceWithInterpreter:
    """Compiled pipeline output == reference interpreter output for
    deterministic policies."""

    def check(self, policy: Policy, rows=None, params=None):
        smbm = build_smbm(rows if rows is not None else DEFAULT_ROWS)
        params = params or PipelineParams(n=8, k=5, f=2, chain_length=8)
        compiled = PolicyCompiler(params).compile(policy)
        interp = PolicyInterpreter(policy)
        assert compiled.evaluate(smbm) == interp.evaluate(smbm), (
            compiled.describe()
        )

    def test_single_predicate(self):
        self.check(Policy(predicate(TableRef(), "cpu", "<", 60)))

    def test_min_max(self):
        self.check(Policy(min_of(TableRef(), "mem")))
        self.check(Policy(max_of(TableRef(), "bw")))

    def test_top_k(self):
        self.check(Policy(min_of(TableRef(), "cpu", k=3)))

    def test_serial_unary_chain(self):
        self.check(Policy(min_of(predicate(TableRef(), "cpu", "<", 70), "bw")))

    def test_binary_of_two_predicates(self):
        t = TableRef()
        self.check(
            Policy(union(predicate(t, "cpu", "<", 40), predicate(t, "mem", ">", 5)))
        )

    def test_nested_binaries(self):
        t = TableRef()
        self.check(
            Policy(
                intersection(
                    union(predicate(t, "cpu", "<", 70), predicate(t, "mem", ">", 7)),
                    predicate(t, "bw", ">", 2),
                )
            )
        )

    def test_difference_with_table(self):
        from repro.core.policy import difference

        self.check(Policy(difference(TableRef(), predicate(TableRef(), "cpu", "<", 50))))

    def test_conditional_primary_non_empty(self):
        self.check(
            Policy(
                Conditional(
                    predicate(TableRef(), "cpu", "<", 60), min_of(TableRef(), "cpu")
                )
            )
        )

    def test_conditional_fallback_used(self):
        self.check(
            Policy(
                Conditional(
                    predicate(TableRef(), "cpu", "<", 0), min_of(TableRef(), "cpu")
                )
            )
        )

    def test_shared_node_fanout(self):
        shared = predicate(TableRef(), "cpu", "<", 70)
        self.check(Policy(union(min_of(shared, "mem"), max_of(shared, "bw"))))

    def test_empty_table(self):
        self.check(Policy(min_of(TableRef(), "cpu")), rows={})

    def test_drill_shape_policy(self):
        """Policy 3 of 7.2.4 (DRILL): min queue over (d random ∪ m prev least)."""
        # Deterministic stand-in: min over (top-2 min cpu ∪ top-2 min mem).
        t = TableRef()
        pol = Policy(
            min_of(union(min_of(t, "cpu", k=2), min_of(t, "mem", k=2)), "bw")
        )
        self.check(pol)


# -- randomised differential testing -------------------------------------------------


@st.composite
def deterministic_policies(draw, max_depth=3):
    """Random deterministic policy trees (no random/round-robin ops)."""

    def node(depth):
        if depth == 0:
            return TableRef()
        kind = draw(st.sampled_from(["pred", "min", "max", "bin", "table"]))
        if kind == "table":
            return TableRef()
        if kind == "pred":
            return predicate(
                node(depth - 1),
                draw(st.sampled_from(METRICS)),
                draw(st.sampled_from(list(RelOp))),
                draw(st.integers(min_value=-5, max_value=15)),
            )
        if kind in ("min", "max"):
            fn = min_of if kind == "min" else max_of
            return fn(
                node(depth - 1),
                draw(st.sampled_from(METRICS)),
                k=draw(st.integers(min_value=1, max_value=3)),
            )
        op = draw(st.sampled_from([union, intersection]))
        return op(node(depth - 1), node(depth - 1))

    return Policy(node(max_depth))


rows_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=CAP - 1),
    st.tuples(*[st.integers(min_value=0, max_value=10)] * 3),
    max_size=CAP,
)


class TestRandomisedEquivalence:
    @given(deterministic_policies(), rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_compiled_equals_interpreted(self, policy, rows):
        smbm = build_smbm(rows)
        params = PipelineParams(n=8, k=6, f=2, chain_length=4)
        try:
            compiled = PolicyCompiler(params).compile(policy)
        except CompilationError:
            return  # legitimately too large for this pipeline
        interp = PolicyInterpreter(policy)
        assert compiled.evaluate(smbm) == interp.evaluate(smbm)

    @given(rows_strategy)
    @settings(max_examples=30, deadline=None)
    def test_random_policy_outputs_member_singletons(self, rows):
        smbm = build_smbm(rows)
        policy = Policy(random_pick(TableRef()))
        compiled = PolicyCompiler(PipelineParams(n=2, k=1, f=1, chain_length=1)).compile(
            policy
        )
        out = compiled.evaluate(smbm)
        if rows:
            assert out.popcount() == 1
            assert set(out.indices()) <= set(rows)
        else:
            assert out.is_empty()


class TestFigure14Structure:
    """The compiled Figure 14 policy uses the same hardware budget as the
    paper's hand-drawn mapping: the conditional L4-LB policy fits 3 stages
    of a 4-line pipeline, with the two intersections fused into whole cells."""

    def test_resource_usage_matches_figure(self):
        compiled = PolicyCompiler(
            PipelineParams(n=4, k=3, f=2, chain_length=4)
        ).compile(fig14_policy())
        config = compiled.config

        # Sides actually wired = crossbar ports carrying a signal.
        wired = [len(stage.wiring) for stage in config.stages]
        # Stage 1 is fully used (intersection cell + passthroughs);
        # later stages progressively drain; nothing exceeds n=4 ports.
        assert all(w <= 4 for w in wired)
        assert wired[0] >= 3
        # Exactly one intersection cell in each of stages 1 and 2.
        from repro.core.operators import BinaryOp

        inter_per_stage = [
            sum(1 for cell in stage.cells
                if cell.bfpu1.opcode is BinaryOp.INTERSECTION)
            for stage in config.stages
        ]
        assert inter_per_stage[:2] == [1, 1]
        # The MUX plan picks between two distinct last-stage lines.
        assert compiled.mux is not None
        assert compiled.mux.primary_line != compiled.mux.fallback_line


def _slice_policy() -> Policy:
    return Policy(intersection(predicate(TableRef(), "cpu", "<", 70),
                               predicate(TableRef(), "mem", ">", 100)),
                  name="slice")


#: Three Cells per stage: room to place around an excluded one.
ROOMY = PipelineParams(n=6, k=3, f=2, chain_length=2)


def test_compiler_rejects_out_of_range_dead_cells():
    compiler = PolicyCompiler(ROOMY)
    with pytest.raises(ConfigurationError):
        compiler.compile(_slice_policy(), dead_cells=[(0, 0)])
    with pytest.raises(ConfigurationError):
        compiler.compile(_slice_policy(), dead_cells=[(1, 99)])


def test_compiled_with_dead_cells_never_routes_them():
    """An excluded Cell (a tenant slice's foreign Cell) is killed in the
    compiled pipeline and placed nothing."""
    compiled = PolicyCompiler(ROOMY).compile(
        _slice_policy(), dead_cells=[(1, 0)]
    )
    assert compiled.dead_cells == frozenset({(1, 0)})
    assert (1, 0) not in compiled.pipeline.active_cells()
    assert compiled.pipeline.cell_at(1, 0).is_dead

"""Tests for the policy AST and reference interpreter (section 4)."""

import pytest

from repro.core.bitvector import BitVector
from repro.core.compiler import PolicyCompiler
from repro.core.operators import RelOp
from repro.core.policy import (
    Binary,
    Conditional,
    Policy,
    PolicyInterpreter,
    TableRef,
    Unary,
    difference,
    intersection,
    max_of,
    min_of,
    predicate,
    random_pick,
    round_robin,
    stateless_blockers,
    union,
)
from repro.core.smbm import SMBM
from repro.engine import PlanCodegen
from repro.errors import ConfigurationError
from repro.policies.table5 import TABLE5_POLICIES, build_table5_policy
from tests.core.test_fastpath_differential import _stateful_builders
from tests.serving.test_backend_conformance import POLICIES

CAP = 16


def build(rows: dict[int, tuple[int, int]]) -> SMBM:
    smbm = SMBM(CAP, ["x", "y"])
    for rid, (x, y) in rows.items():
        smbm.add(rid, {"x": x, "y": y})
    return smbm


class TestConstruction:
    def test_nodes_have_identity_semantics(self):
        a, b = TableRef(), TableRef()
        assert a.node_id != b.node_id

    def test_conditional_only_at_root(self):
        inner = Conditional(TableRef(), TableRef())
        with pytest.raises(ConfigurationError):
            Policy(min_of(inner, "x"))

    def test_conditional_at_root_allowed(self):
        Policy(Conditional(min_of(TableRef(), "x"), random_pick(TableRef())))

    def test_helpers_accept_string_relop(self):
        node = predicate(TableRef(), "x", "<", 5)
        assert node.config.rel_op is RelOp.LT

    def test_feedback_is_checked_where_the_policy_is_built(self):
        line = TableRef(input_index=1)
        seen = union(predicate(TableRef(), "x", "<", 5), min_of(line, "x"))
        assert Policy(seen, feedback={1: seen}).feedback == {1: seen}
        for feedback in (
            {},                              # input[1] nobody binds
            {1: seen, 2: seen},              # a binding nobody reads
            {1: min_of(TableRef(), "x")},    # a bound node outside the DAG
        ):
            with pytest.raises(ConfigurationError):
                Policy(seen, feedback=feedback)


BUILDERS = {
    **{key: lambda key=key: build_table5_policy(key)
       for key in TABLE5_POLICIES},
    **{f"tenant-{name}": build for name, build in POLICIES.items()},
    **_stateful_builders(),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_stateless_has_one_definition(name):
    """What the memo trusts (the compiled plan) and what picks the engine
    (the policy) cannot disagree — a feedback register counts in both."""
    policy = BUILDERS[name]()
    compiled = PolicyCompiler().compile(policy)
    assert compiled.stateless == (not stateless_blockers(policy))


class TestInterpreter:
    def test_table_ref_returns_everything(self):
        smbm = build({1: (0, 0), 3: (0, 0)})
        interp = PolicyInterpreter(Policy(TableRef()))
        assert set(interp.evaluate(smbm).indices()) == {1, 3}

    def test_figure1_routing_policy(self):
        """Fig. 1: paths with delay < d and utilization < u."""
        smbm = build({0: (5, 80), 1: (2, 40), 2: (1, 90), 3: (3, 30)})
        paths = TableRef()
        policy = Policy(
            intersection(
                predicate(paths, "x", "<", 4),  # delay < 4
                predicate(paths, "y", "<", 60),  # utilization < 60
            )
        )
        interp = PolicyInterpreter(policy)
        assert set(interp.evaluate(smbm).indices()) == {1, 3}

    def test_figure3_conga_policy(self):
        """Fig. 3: the least congested path."""
        smbm = build({0: (5, 0), 1: (2, 0), 2: (8, 0)})
        interp = PolicyInterpreter(Policy(min_of(TableRef(), "x")))
        assert set(interp.evaluate(smbm).indices()) == {1}

    def test_union_difference(self):
        smbm = build({i: (i, 0) for i in range(6)})
        t = TableRef()
        low = predicate(t, "x", "<", 2)   # {0, 1}
        high = predicate(t, "x", ">", 3)  # {4, 5}
        interp = PolicyInterpreter(Policy(union(low, high)))
        assert set(interp.evaluate(smbm).indices()) == {0, 1, 4, 5}
        interp2 = PolicyInterpreter(
            Policy(difference(TableRef(), predicate(TableRef(), "x", "<", 3)))
        )
        assert set(interp2.evaluate(smbm).indices()) == {3, 4, 5}

    def test_conditional_prefers_primary(self):
        smbm = build({0: (1, 0), 1: (9, 0)})
        policy = Policy(
            Conditional(predicate(TableRef(), "x", "<", 5), max_of(TableRef(), "x"))
        )
        interp = PolicyInterpreter(policy)
        assert set(interp.evaluate(smbm).indices()) == {0}

    def test_conditional_falls_back_when_empty(self):
        smbm = build({0: (6, 0), 1: (9, 0)})
        policy = Policy(
            Conditional(predicate(TableRef(), "x", "<", 5), max_of(TableRef(), "x"))
        )
        interp = PolicyInterpreter(policy)
        assert set(interp.evaluate(smbm).indices()) == {1}

    def test_shared_subpolicy_evaluated_once(self):
        """A shared random node yields the same pick on both sides."""
        smbm = build({i: (0, 0) for i in range(8)})
        shared = random_pick(TableRef())
        interp = PolicyInterpreter(Policy(intersection(shared, shared)))
        out = interp.evaluate(smbm)
        assert out.popcount() == 1

    def test_parallel_chain_top_k(self):
        smbm = build({i: (10 - i, 0) for i in range(8)})
        interp = PolicyInterpreter(Policy(min_of(TableRef(), "x", k=3)))
        assert set(interp.evaluate(smbm).indices()) == {7, 6, 5}

    def test_round_robin_state_persists_across_packets(self):
        smbm = build({i: (1, 0) for i in range(3)})
        interp = PolicyInterpreter(Policy(round_robin(TableRef(), "x")))
        picks = [interp.select(smbm) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_reset_state(self):
        smbm = build({i: (1, 0) for i in range(3)})
        interp = PolicyInterpreter(Policy(round_robin(TableRef(), "x")))
        interp.select(smbm)
        interp.reset_state()
        assert interp.select(smbm) == 0

    def test_select_none_when_multiple(self):
        smbm = build({0: (0, 0), 1: (0, 0)})
        interp = PolicyInterpreter(Policy(TableRef()))
        assert interp.select(smbm) is None

    def test_select_none_when_empty(self):
        smbm = build({})
        interp = PolicyInterpreter(Policy(TableRef()))
        assert interp.select(smbm) is None

    def test_serial_chain_of_unaries(self):
        """min over the output of a predicate — section 4.2.2 serial chain."""
        smbm = build({0: (9, 1), 1: (5, 7), 2: (3, 4), 3: (6, 2)})
        policy = Policy(min_of(predicate(TableRef(), "x", "<", 8), "y"))
        interp = PolicyInterpreter(policy)
        assert set(interp.evaluate(smbm).indices()) == {3}

    def test_chain_deeper_than_the_recursion_limit(self):
        """Regression: a recursive walk overflowed the stack on a chain
        the kernel serves; one pass over the postorder does not."""
        smbm = build({0: (5, 0), 1: (1, 0), 2: (2, 0), 3: (9, 0)})
        node = TableRef()
        for i in range(1500):
            node = (predicate(node, "x", "<", 9) if i % 2
                    else predicate(node, "x", ">", 1))
        policy = Policy(node, name="deep")
        record = {}
        out = PolicyInterpreter(policy).evaluate(smbm, record=record)
        assert out.value == PlanCodegen(policy).evaluate(smbm) == 0b101
        assert len(record) == 1501

"""Advanced compiler features: feedback input lines, their taps, MUX selects."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import PolicyCompiler
from repro.core.operators import RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Policy,
    PolicyInterpreter,
    TableRef,
    intersection,
    min_of,
    predicate,
    union,
)
from repro.core.smbm import SMBM
from repro.errors import CompilationError, ConfigurationError

PARAMS = PipelineParams(n=4, k=3, f=2, chain_length=4)


def build_smbm(values: dict[int, int], cap=16) -> SMBM:
    smbm = SMBM(cap, ["x"])
    for rid, x in values.items():
        smbm.add(rid, {"x": x})
    return smbm


def remembering() -> Policy:
    """``min(seen)``, ``seen = (x < 50) ∪ min(input[1])`` fed back to line 1."""
    seen = union(predicate(TableRef(), "x", "<", 50),
                 min_of(TableRef(input_index=1), "x"))
    return Policy(min_of(seen, "x"), feedback={1: seen})


class TestExplicitInputs:
    def test_explicit_input_flows_through(self):
        """Line 1 carries what its bound node held one packet earlier."""
        fed = predicate(TableRef(), "x", "<", 5)
        policy = Policy(union(fed, min_of(TableRef(input_index=1), "x")),
                        feedback={1: fed})
        compiled = PolicyCompiler(PARAMS).compile(policy)
        smbm = build_smbm({0: 5, 1: 3, 2: 9, 3: 1})
        assert set(compiled.evaluate(smbm).indices()) == {1, 3}
        smbm.update(3, {"x": 7})
        smbm.update(1, {"x": 8})
        # Nothing is < 5 any more: what is left is the min of last
        # packet's {1, 3}, not of the table (whose min is id 0).
        assert set(compiled.evaluate(smbm).indices()) == {3}

    def test_feedback_line_is_empty_before_the_first_packet_and_after_reset(self):
        fed = predicate(TableRef(), "x", "<", 50)
        policy = Policy(intersection(fed, TableRef(input_index=1)),
                        feedback={1: fed})
        smbm = build_smbm({0: 5, 3: 1, 4: 70})
        for evaluator in (PolicyCompiler(PARAMS).compile(policy),
                          PolicyInterpreter(policy)):
            assert evaluator.evaluate(smbm).is_empty()
            assert set(evaluator.evaluate(smbm).indices()) == {0, 3}
            evaluator.reset_state()
            assert evaluator.evaluate(smbm).is_empty()

    def test_interpreter_requires_declared_inputs(self):
        with pytest.raises(ConfigurationError):
            Policy(min_of(TableRef(input_index=1), "x"))
        policy = remembering()
        interp = PolicyInterpreter(policy)
        smbm = build_smbm({0: 5})
        assert set(interp.evaluate(smbm).indices()) == {0}

    def test_out_of_range_input_index_rejected(self):
        line = TableRef(input_index=7)
        policy = Policy(min_of(line, "x"), feedback={7: line})
        with pytest.raises(CompilationError):
            PolicyCompiler(PARAMS).compile(policy)

    def test_reserved_line_not_used_for_full_table(self):
        """'Any table' taps must avoid lines a register drives."""
        explicit = TableRef(input_index=0)
        nothing = predicate(TableRef(), "x", ">", 1000)
        policy = Policy(
            union(min_of(explicit, "x"),
                  union(min_of(TableRef(), "x"), nothing)),
            feedback={0: nothing},
        )
        compiled = PolicyCompiler(PARAMS).compile(policy)
        smbm = build_smbm({0: 5, 1: 3, 2: 9})
        for _ in range(2):
            # The explicit branch sees nothing; the implicit branches must
            # still see the full table (id 1 is its min).
            assert set(compiled.evaluate(smbm).indices()) == {1}

    @given(
        st.lists(
            st.dictionaries(st.integers(min_value=0, max_value=15),
                            st.integers(min_value=0, max_value=99),
                            min_size=1, max_size=16),
            min_size=1, max_size=6,
        ),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_compiled_equals_interpreted_with_inputs(self, tables, k):
        """``input[1]`` bound to an interior unary its binary parent would
        otherwise fuse: both evaluators carry the register across a
        sequence of tables, each packet twice."""
        fed = predicate(TableRef(), "x", "<", 50)
        policy = Policy(
            union(intersection(fed, predicate(TableRef(), "x", ">", 10)),
                  min_of(TableRef(input_index=1), "x", k=k)),
            feedback={1: fed},
        )
        compiled = PolicyCompiler(PARAMS).compile(policy)
        interp = PolicyInterpreter(policy)
        for rows in tables:
            smbm = build_smbm(rows)
            for _ in range(2):
                assert compiled.evaluate(smbm) == interp.evaluate(smbm)


class TestTaps:
    def test_tap_exposes_interior_value(self):
        """The register holds the *bound* node's value, not the root's."""
        policy = remembering()
        compiled = PolicyCompiler(PARAMS).compile(policy)
        smbm = build_smbm({0: 10, 1: 60, 2: 30})
        assert set(compiled.evaluate(smbm).indices()) == {0}
        smbm.update(0, {"x": 80})
        smbm.update(2, {"x": 70})
        # Nothing is < 50 now, so the answer is the min of line 1: id 2 if
        # it carries ``seen`` = {0, 2}, id 0 had it carried the root's {0}.
        assert set(compiled.evaluate(smbm).indices()) == {2}

    def test_tap_lines_recorded(self):
        policy = remembering()
        compiled = PolicyCompiler(PARAMS).compile(policy)
        assert set(compiled.tap_lines) == {1}
        assert compiled.tap_lines[1] != compiled.output_line
        assert PolicyCompiler(PARAMS).compile(
            Policy(min_of(TableRef(), "x"))).tap_lines == {}

    def test_feedback_loop_drill_style(self):
        """Previous output fed back as next decision's input: the chain
        converges on the global minimum."""
        from repro.core.policy import random_pick, union as u

        prev_ref = TableRef(input_index=1)
        examined = u(random_pick(TableRef(), k=2), min_of(prev_ref, "x", k=1))
        policy = Policy(min_of(examined, "x"), feedback={1: examined})
        compiled = PolicyCompiler(PARAMS).compile(policy)
        smbm = build_smbm({i: 100 - i for i in range(10)})
        picked_values = []
        for _ in range(40):
            out = compiled.evaluate(smbm)
            picked_values.append(smbm.metric_of(out.first_set(), "x"))
        # The m=1 memory keeps the best port seen so far, so the picked
        # metric never gets worse — the defining property of DRILL's memory.
        assert all(b <= a for a, b in zip(picked_values, picked_values[1:]))
        assert picked_values[-1] < picked_values[0] or picked_values[0] == 91


class TestBinaryNoOpMux:
    """The binary no-op (a 2:1 MUX, section 4.1.2) inside a compiled chain."""

    def test_mux_selects_configured_input(self):
        from repro.core.operators import BinaryOp
        from repro.core.policy import Binary, max_of

        left = min_of(TableRef(), "x")
        right = max_of(TableRef(), "x")
        smbm = build_smbm({0: 1, 1: 9})
        for choice, expected in ((0, {0}), (1, {1})):
            policy = Policy(Binary(opcode=BinaryOp.NO_OP, left=left_copy(),
                                   right=right_copy(), choice=choice))
            compiled = PolicyCompiler(PARAMS).compile(policy)
            assert set(compiled.evaluate(smbm).indices()) == expected


def left_copy():
    return min_of(TableRef(), "x")


def right_copy():
    from repro.core.policy import max_of

    return max_of(TableRef(), "x")


class TestSharedSubDags:
    """The compiler's DAG walks go per node, not per path to it."""

    def test_nodes_under_a_shared_sub_dag_still_fuse(self):
        """Two paths reach each predicate (through the shared
        intersection) but one edge does: both fuse into the
        intersection's Cell, and the policy fits the default four stages
        instead of needing a fifth."""
        import random

        from repro.core.policy import difference, max_of

        def pred():
            return predicate(TableRef(), "x", RelOp.LT, 5)

        shared = intersection(pred(), pred())
        policy = Policy(
            min_of(difference(union(min_of(shared, "x"), max_of(shared, "x")),
                              pred()), "y"),
            name="shared",
        )
        compiled = PolicyCompiler().compile(policy)
        reference = PolicyInterpreter(policy)
        rng = random.Random(17)
        for _ in range(200):
            smbm = SMBM(8, ["x", "y"])
            for rid in rng.sample(range(8), rng.randrange(9)):
                smbm.add(rid, {"x": rng.randrange(10), "y": rng.randrange(10)})
            assert compiled.evaluate(smbm) == reference.evaluate(smbm)

    def test_a_dag_taller_than_the_pipeline_is_refused_not_recursed_into(self):
        """A 5 000-node unary chain, as a policy document would deliver
        it: a typed refusal from the compiler, and a constructor of the
        reference that walks it without recursing."""
        node = TableRef()
        for _ in range(5000):
            node = min_of(node, "x")
        policy = Policy(node, name="chain")
        with pytest.raises(CompilationError) as exc_info:
            PolicyCompiler().compile(policy)
        assert exc_info.value.rule == "TH009"
        assert PolicyInterpreter(policy).policy is policy

"""One stateless walk, two domains: the lowerings of
:func:`repro.core.policy.fold` agree with the interpreted pipeline, and the
batch fold keeps nothing alive once it returns.
"""

from __future__ import annotations

import gc

import pytest

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.compiler import PolicyCompiler
from repro.core.operators import BinaryOp, RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Binary,
    Conditional,
    Policy,
    PolicyInterpreter,
    TableRef,
    max_of,
    min_of,
    predicate,
    union,
)
from repro.core.smbm import SMBM
from repro.engine import BatchedEvaluator
from repro.errors import CompilationError

from tests.engine.test_batch_differential import (
    CAP,
    METRICS,
    VALUE_RANGE,
    agreed_outputs,
)

#: Roomier than the paper's default so most drawn DAGs place.
PARAMS = PipelineParams(n=8, k=5, f=3)
FULL = (1 << CAP) - 1

_attrs = st.sampled_from(METRICS)


def _unary_over(children):
    return st.one_of(
        st.builds(predicate, children, _attrs, st.sampled_from(list(RelOp)),
                  st.integers(-2, VALUE_RANGE + 1)),
        st.builds(lambda child, attr, k: min_of(child, attr, k=k),
                  children, _attrs, st.integers(1, 3)),
        st.builds(lambda child, attr, k: max_of(child, attr, k=k),
                  children, _attrs, st.integers(1, 3)),
    )


def _binary_over(children):
    merging = st.sampled_from(
        [BinaryOp.UNION, BinaryOp.INTERSECTION, BinaryOp.DIFFERENCE]
    )
    return st.one_of(
        st.builds(lambda op, left, right: Binary(op, left, right),
                  merging, children, children),
        st.builds(lambda left, right, choice:
                  Binary(BinaryOp.NO_OP, left, right, choice),
                  children, children, st.integers(0, 1)),
        # Shared fan-out: one node object feeding both operands.
        st.builds(lambda node: union(node, node), children),
        # A shared binary over unaries of its own: two paths reach each
        # unary but one edge does, so it fuses into the binary's Cell.
        st.builds(lambda op, left, right, attr:
                  _min_and_max_of(Binary(op, left, right), attr),
                  merging, _unary_over(children), _unary_over(children),
                  _attrs),
    )


def _min_and_max_of(shared, attr):
    return union(min_of(shared, attr), max_of(shared, attr))


_nodes = st.recursive(
    _unary_over(st.just(TableRef())),
    lambda children: st.one_of(_unary_over(children), _binary_over(children)),
    max_leaves=4,
)
_roots = st.one_of(_nodes, st.builds(Conditional, _nodes, _nodes))
_rows = st.lists(
    st.tuples(st.integers(0, CAP - 1), st.integers(0, VALUE_RANGE - 1),
              st.integers(0, VALUE_RANGE - 1)),
    max_size=CAP,
)
_masks = st.lists(st.integers(0, FULL), max_size=10)


@given(root=_roots, rows=_rows, masks=_masks)
def test_every_domain_equals_the_interpreted_pipeline(root, rows, masks):
    """Random stateless DAGs x random tables (the empty one included) x
    random mask columns: int-column == scalar kernel ==
    ``evaluate_restricted`` == the naive interpreter.  Every column also
    carries the empty mask and the all-ones mask, whose bits name absent
    ids on any non-full table."""
    policy = Policy(root, name="prop")
    try:
        # verify=False: the static verifier's lints are not under test
        # here, and it is most of what a compile costs.
        compiled = PolicyCompiler(PARAMS).compile(policy, verify=False)
    except CompilationError:
        assume(False)
    smbm = SMBM(CAP, METRICS)
    for rid, a, b in rows:
        if rid not in smbm:
            smbm.add(rid, {"a": a, "b": b})
    agreed_outputs(compiled, smbm, masks + [0, FULL])


def test_the_reference_shares_nothing_with_what_it_checks(registry):
    """What makes the differential above worth its name: the naive
    interpreter answers from the table's sorted lists alone — it builds
    and patches no ``MetricIndex`` and compiles nothing."""
    table = TableRef()
    policy = Policy(
        Conditional(min_of(union(predicate(table, "a", RelOp.LT, 9),
                                 predicate(table, "b", RelOp.GT, 3)), "a", k=2),
                    max_of(table, "b")),
        name="independent",
    )
    smbm = SMBM(CAP, METRICS)
    for rid in range(CAP // 2):
        smbm.add(rid, {"a": rid % VALUE_RANGE, "b": (rid * 7) % VALUE_RANGE})
    reference = PolicyInterpreter(policy)
    assert reference.evaluate(smbm).value == 0b11
    smbm.update(0, {"a": VALUE_RANGE - 1, "b": 0})
    assert reference.evaluate(smbm, mask=0b1111).value == 0b110
    assert registry.value_of("smbm_index_rebuilds_total") == 0
    assert registry.value_of("smbm_index_patches_total") == 0
    assert registry.value_of("span_calls_total",
                             {"span": "policy_compile"}) == 0
    # The same questions put to a compiled plan move both.
    compiled = PolicyCompiler(PARAMS).compile(policy)
    assert compiled.evaluate_restricted(smbm, 0b1111).value == 0b110
    assert registry.value_of("smbm_index_rebuilds_total") > 0
    assert registry.value_of("span_calls_total",
                             {"span": "policy_compile"}) == 1


class TestBatchLanesLeakNothing:
    """The batch fold's intermediates must die by reference counting when
    ``evaluate_masks`` returns: a cycle through them would pin every
    column of the call until the cyclic collector happens by."""

    def _evaluator_and_table(self):
        table = TableRef()
        policy = Policy(
            min_of(union(predicate(table, "a", RelOp.LT, 9),
                         predicate(table, "b", RelOp.GT, 3)), "a", k=2),
            name="leak",
        )
        smbm = SMBM(CAP, METRICS)
        for rid in range(CAP // 2):
            smbm.add(rid, {"a": rid % VALUE_RANGE, "b": (rid * 7) % VALUE_RANGE})
        return BatchedEvaluator(policy, CAP), smbm

    @pytest.fixture
    def no_gc(self):
        gc.collect()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    def test_int_lane_leaves_no_cycles(self, no_gc):
        evaluator, smbm = self._evaluator_and_table()
        evaluator.evaluate_masks(smbm, [FULL] * 8)  # warm indices
        gc.collect()
        evaluator.evaluate_masks(smbm, [FULL] * 8)
        # int columns are plain lists (no weak references): unreachable
        # cyclic garbage is what a leaked walk would leave behind.
        assert gc.collect() == 0

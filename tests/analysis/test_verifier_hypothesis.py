"""Property suite for the static verifier.

The verifier's soundness contract, stated as properties over random
policy ASTs:

* **totality** — ``verify_policy_compiles`` never raises: every random
  policy either verifies clean (possibly with warnings) or is rejected
  with findings carrying registered rule ids;
* **agreement** — when the trial verification reports no error, compiling
  with verification *on* succeeds; when it reports errors, the guarded
  compile raises a :class:`~repro.errors.CompilationError` whose rule id
  is registered;
* **no runtime surprises** — a plan that passed verification never raises
  at evaluation time, over random tables and random write interleavings
  (including the 10k-packet acceptance run).
"""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import obs  # noqa: E402
from repro.analysis import RULES, TableSchema  # noqa: E402
from repro.analysis.verifier import verify_policy_compiles  # noqa: E402
from repro.core.compiler import PolicyCompiler  # noqa: E402
from repro.core.operators import RelOp  # noqa: E402
from repro.core.pipeline import PipelineParams  # noqa: E402
from repro.core.policy import (  # noqa: E402
    Node,
    Policy,
    TableRef,
    difference,
    intersection,
    max_of,
    min_of,
    predicate,
    union,
)
from repro.core.smbm import SMBM, STORED_WORD_BITS  # noqa: E402
from repro.errors import CompilationError  # noqa: E402
from repro.switch.filter_module import FilterModule  # noqa: E402

CAPACITY = 16
METRICS = ("a", "b")
SCHEMA = TableSchema(CAPACITY, METRICS)
PARAMS = PipelineParams()  # the paper's default n=4, k=4, f=2, chain=4

# Attribute pool deliberately includes a name absent from the schema
# (TH002 territory) and value pool includes out-of-word values (TH003).
ATTRS = ("a", "b", "ghost")
VALUES = (0, 1, 7, 500, (1 << STORED_WORD_BITS) - 1, 1 << STORED_WORD_BITS)


def _leaf() -> st.SearchStrategy[Node]:
    return st.just(None).map(lambda _: TableRef())


def _unary(child: st.SearchStrategy[Node]) -> st.SearchStrategy[Node]:
    return st.one_of(
        st.tuples(child, st.sampled_from(ATTRS),
                  st.sampled_from(tuple(RelOp)), st.sampled_from(VALUES),
                  st.integers(min_value=1, max_value=6))
        .map(lambda t: predicate(t[0], t[1], t[2], t[3], k=t[4])),
        st.tuples(child, st.sampled_from(ATTRS),
                  st.integers(min_value=1, max_value=6))
        .map(lambda t: min_of(t[0], t[1], k=t[2])),
        st.tuples(child, st.sampled_from(ATTRS),
                  st.integers(min_value=1, max_value=6))
        .map(lambda t: max_of(t[0], t[1], k=t[2])),
    )


def _binary(child: st.SearchStrategy[Node]) -> st.SearchStrategy[Node]:
    op = st.sampled_from((union, intersection, difference))
    return st.tuples(op, child, child).map(lambda t: t[0](t[1], t[2]))


def policies() -> st.SearchStrategy[Policy]:
    node = st.recursive(
        _leaf(),
        lambda child: st.one_of(_unary(child), _binary(child)),
        max_leaves=6,
    )
    return node.map(lambda root: Policy(root, name="random"))


def _fill(smbm: SMBM, rng: random.Random, rows: int) -> None:
    for rid in rng.sample(range(smbm.capacity), rows):
        smbm.add(rid, {m: rng.randrange(1000) for m in METRICS})


@given(policy=policies())
@settings(max_examples=60)
def test_verify_is_total_and_rules_are_registered(policy: Policy):
    report = verify_policy_compiles(policy, PARAMS, schema=SCHEMA)
    for finding in report.findings:
        assert finding.rule in RULES


@given(policy=policies())
@settings(max_examples=60)
def test_verify_agrees_with_guarded_compile(policy: Policy):
    report = verify_policy_compiles(policy, PARAMS, schema=SCHEMA)
    if report.ok:
        # The guarded compile accepts it and counts exactly its warnings.
        with obs.use_registry() as registry:
            PolicyCompiler(PARAMS).compile(policy, schema=SCHEMA)
            counted = {rule for rule in RULES if registry.value_of(
                "lint_findings_total", {"rule": rule})}
        assert counted == {f.rule for f in report.warnings}
    else:
        with pytest.raises(CompilationError) as exc_info:
            PolicyCompiler(PARAMS).compile(policy, schema=SCHEMA)
        assert exc_info.value.rule in RULES


@given(policy=policies(), seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40)
def test_verified_plan_never_raises_at_evaluation(policy: Policy, seed: int):
    report = verify_policy_compiles(policy, PARAMS, schema=SCHEMA)
    if not report.ok:
        return  # rejected statically: nothing to run
    rng = random.Random(seed)
    module = FilterModule(CAPACITY, METRICS, policy, PARAMS)
    _fill(module.smbm, rng, rows=rng.randrange(CAPACITY + 1))
    for _ in range(20):
        out = module.evaluate()
        assert out.width == CAPACITY
        if rng.random() < 0.3:
            rid = rng.randrange(CAPACITY)
            if rid in module.smbm:
                module.remove_resource(rid)
            else:
                module.update_resource(
                    rid, {m: rng.randrange(1000) for m in METRICS}
                )


def test_verified_plan_survives_10k_random_packets(registry):
    """Acceptance run: one verified plan, 10k packets, periodic writes,
    zero raises — with the sanitizer armed the whole way."""
    table = TableRef()
    eligible = intersection(
        predicate(table, "a", RelOp.LT, 700),
        predicate(table, "b", RelOp.GT, 100),
    )
    policy = Policy(min_of(eligible, "a"), name="acceptance")
    assert verify_policy_compiles(policy, PARAMS, schema=SCHEMA).clean

    rng = random.Random(0xACCE97)
    module = FilterModule(CAPACITY, METRICS, policy, PARAMS, sanitize=True)
    _fill(module.smbm, rng, rows=CAPACITY // 2)
    for i in range(10_000):
        out = module.evaluate()
        assert out.width == CAPACITY
        if i % 97 == 0:
            rid = rng.randrange(CAPACITY)
            if rid in module.smbm:
                module.remove_resource(rid)
            else:
                module.update_resource(
                    rid, {m: rng.randrange(1000) for m in METRICS}
                )
    assert registry.value_of("filter_evaluations_total") == 10_000
    assert module.sanitize_check() is not None

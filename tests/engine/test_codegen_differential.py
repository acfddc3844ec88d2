"""Differential tests: specialized codegen kernels vs the interpreted plan.

The verified-then-specialized bargain only holds if the flat closure the
codegen tier emits is *observationally identical* to the interpreted Cell
pipeline it replaces.  These suites drive well over 1000 randomized
(policy x table-state) cases through both paths — scalar kernels, batch
kernels, cache invalidation across SMBM writes — plus the
eligibility gate (ineligible policies are refused) and the sanitizer's
kernel-vs-oracle check.
"""

from __future__ import annotations

import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import PolicyCompiler
from repro.core.operators import RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Conditional,
    Policy,
    TableRef,
    max_of,
    min_of,
    predicate,
    random_pick,
)
from repro.core.smbm import SMBM
from repro.engine import PlanCodegen, plan_hash_of
from repro.engine.codegen import generate_plan_source
from repro.errors import (
    CompilationError,
    ConfigurationError,
    IntegrityError,
)
from repro.rmt.packet import Packet
from repro.switch.filter_module import (
    META_FILTER_INPUT,
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    FilterModule,
    PacketBatch,
)

from tests.engine.test_batch_differential import (
    CAP,
    METRICS,
    VALUE_RANGE,
    _build_module,
    _check_batch_matches_scalar,
    agreed_outputs,
    _random_masked_batch,
    _random_stateless_root,
    _random_write,
)

PARAMS = PipelineParams()


def _compile_random(rng: random.Random, name: str):
    """A random codegen-eligible policy: ``(compiled plan, kernel tier)``."""
    compiler = PolicyCompiler(PARAMS)
    from repro.analysis import TableSchema

    schema = TableSchema(CAP, METRICS)
    for attempt in range(50):
        policy = Policy(_random_stateless_root(rng), name=f"{name}{attempt}")
        try:
            compiled = compiler.compile(policy, schema=schema)
        except CompilationError:
            continue
        return compiled, PlanCodegen(policy)
    raise AssertionError("no random policy compiled in 50 tries")


class TestCodegenVsInterpreted:
    """>= 1000 randomized differential cases, scalar and batch kernels."""

    def test_randomized_cases(self, rng):
        cases = 0
        for round_no in range(60):
            compiled, codegen = _compile_random(rng, f"cg{round_no}")
            smbm = SMBM(CAP, METRICS)
            for _ in range(rng.randrange(2, 25)):
                _random_write(rng, smbm)
            for _ in range(4):
                # Scalar kernel vs the interpreted Cell pipeline.
                assert codegen.evaluate(smbm) == compiled.evaluate(smbm).value
                cases += 1
                # Batch kernel vs the restricted interpreted pipeline.
                masks = [rng.getrandbits(CAP) for _ in
                         range(rng.randrange(1, 17))]
                assert codegen.evaluate_masks(smbm, masks) == \
                    agreed_outputs(compiled, smbm, masks), (
                        f"batch lane disagrees for {compiled.policy.name}"
                    )
                cases += len(masks)
                # Writes in between force respecialization on new versions.
                _random_write(rng, smbm)
        assert cases >= 1000, f"only {cases} differential cases ran"

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        writes=st.lists(
            st.tuples(st.integers(0, CAP - 1),
                      st.integers(0, VALUE_RANGE - 1),
                      st.integers(0, VALUE_RANGE - 1)),
            max_size=30,
        ),
        mask=st.integers(0, (1 << CAP) - 1),
    )
    def test_hypothesis_kernel_equals_interpreted(self, seed, writes, mask):
        rng = random.Random(seed)
        compiled, codegen = _compile_random(rng, "hyp")
        smbm = SMBM(CAP, METRICS)
        for rid, a, b in writes:
            if rid in smbm:
                smbm.update(rid, {"a": a, "b": b})
            else:
                smbm.add(rid, {"a": a, "b": b})
        assert codegen.evaluate(smbm) == compiled.evaluate(smbm).value
        assert codegen.evaluate_masks(smbm, [mask]) == \
            agreed_outputs(compiled, smbm, [mask])

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 20),
    )
    def test_hypothesis_batch_equals_scalar_loop(self, seed, size):
        """evaluate_batch == N scalar evaluations, module level."""
        rng = random.Random(seed)
        module = _build_module(rng, "hb", codegen=True)
        for _ in range(rng.randrange(1, 20)):
            _random_write(rng, module.smbm)
        _check_batch_matches_scalar(module, _random_masked_batch(rng, size))


class TestSpecializationCache:
    def test_version_keyed_invalidation(self, rng, registry):
        _, codegen = _compile_random(rng, "cache")
        smbm = SMBM(CAP, METRICS)
        _random_write(rng, smbm)
        codegen.evaluate(smbm)
        misses = registry.value_of("codegen_cache_misses_total")
        codegen.evaluate(smbm)          # unchanged version: a hit
        assert registry.value_of("codegen_cache_misses_total") == misses
        assert registry.value_of("codegen_cache_hits_total") >= 1
        _random_write(rng, smbm)        # version moved: respecialize
        codegen.evaluate(smbm)
        assert registry.value_of("codegen_cache_misses_total") == misses + 1

    def test_source_cache_shared_across_equal_plans(self):
        node = lambda: min_of(  # noqa: E731 - tiny local factory
            predicate(TableRef(), "a", RelOp.LT, 9), "b"
        )
        first = PlanCodegen(Policy(node(), name="one"))
        second = PlanCodegen(Policy(node(), name="two"))
        assert first.plan_hash == second.plan_hash
        assert first.source == second.source

    def test_plan_hash_sensitivity(self):
        base = Policy(
            predicate(TableRef(), "a", RelOp.LT, 9), name="p"
        )
        same = Policy(
            predicate(TableRef(), "a", RelOp.LT, 9), name="renamed"
        )
        different_val = Policy(
            predicate(TableRef(), "a", RelOp.LT, 10), name="p"
        )
        different_op = Policy(
            predicate(TableRef(), "a", RelOp.GE, 9), name="p"
        )
        assert plan_hash_of(base) == plan_hash_of(same)
        assert plan_hash_of(base) != plan_hash_of(different_val)
        assert plan_hash_of(base) != plan_hash_of(different_op)

    def test_generated_source_is_flat(self):
        policy = Policy(
            Conditional(
                primary=min_of(predicate(TableRef(), "a", RelOp.LT, 5), "b",
                               k=2),
                fallback=max_of(TableRef(), "a"),
            ),
            name="flat",
        )
        source, plan_hash, relops = generate_plan_source(policy)
        assert plan_hash == plan_hash_of(policy)
        assert "def specialize(smbm)" in source
        assert relops == (RelOp.LT,)
        # The kernel body is straight-line mask arithmetic: no branches on
        # policy structure, no attribute lookups into the AST.
        assert "node" not in source and "Unary" not in source


class TestConfigurationGuards:
    def test_module_rejects_ineligible_policy(self):
        with pytest.raises(ConfigurationError) as exc_info:
            FilterModule(
                CAP, METRICS,
                Policy(random_pick(TableRef()), name="t"),
                PARAMS, codegen=True,
            )
        assert "TH012" in str(exc_info.value)

    def test_plancodegen_rejects_blocked_plans(self):
        line = TableRef(input_index=1)
        for policy in (Policy(random_pick(TableRef()), name="t"),
                       Policy(min_of(line, "a"), name="t",
                              feedback={1: line})):
            with pytest.raises(ConfigurationError, match="TH012"):
                PlanCodegen(policy)


class TestSanitizerDifferential:
    def test_sanitize_checks_kernel_against_interpreter(self, rng):
        module = _build_module(rng, "san", codegen=True, sanitize=True)
        for _ in range(10):
            _random_write(rng, module.smbm)
        module.evaluate()  # agreeing paths: no complaint
        masked = Packet(metadata={META_FILTER_REQUEST: 1,
                                  META_FILTER_INPUT: rng.getrandbits(CAP)})
        module.hook(masked)  # a masked row is held to the same check
        assert masked.metadata[META_FILTER_OUTPUT] == \
            module.compiled.evaluate_restricted(
                module.smbm, masked.metadata[META_FILTER_INPUT]).value

    def test_sanitize_catches_a_tampered_kernel(self, rng, monkeypatch):
        module = _build_module(rng, "evil", codegen=True, sanitize=True)
        for _ in range(10):
            _random_write(rng, module.smbm)
        good = module.evaluate().value
        _random_write(rng, module.smbm)  # the memo must not answer next
        monkeypatch.setattr(
            module.codegen, "evaluate",
            lambda smbm, mask=None:
                good ^ module.smbm.id_mask() ^ (1 << (CAP - 1)),
        )
        with pytest.raises(IntegrityError):
            module.evaluate()
        with pytest.raises(IntegrityError):  # masked scalar rows too
            module.hook(Packet(metadata={META_FILTER_REQUEST: 1,
                                         META_FILTER_INPUT: (1 << CAP) - 1}))

"""Differential tests: batched columnar evaluation vs N scalar evaluations.

``FilterModule.evaluate_batch`` must be observationally identical to
looping :meth:`FilterModule.evaluate` (uniform rows) /
:meth:`CompiledPolicy.evaluate_restricted` (masked rows) — across
randomized policies, random per-row candidate masks, table mutations
between batches, and stateful policies served by the per-row fallback
path.
"""

from __future__ import annotations

import random

import pytest

from repro.core.compiler import CompiledPolicy
from repro.core.operators import RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Conditional,
    Node,
    Policy,
    PolicyInterpreter,
    TableRef,
    difference,
    fold,
    intersection,
    max_of,
    min_of,
    predicate,
    round_robin,
    union,
)
from repro.core.smbm import SMBM
from repro.engine import PlanCodegen
from repro.engine.columnar import BatchedEvaluator, IntColumnDomain
from repro.errors import CompilationError, ConfigurationError
from repro.switch.filter_module import FilterModule, PacketBatch

CAP = 32
METRICS = ("a", "b")
VALUE_RANGE = 16


def agreed_outputs(compiled: CompiledPolicy, smbm: SMBM,
                   masks: list[int]) -> list[int]:
    """The one differential over the stateless lowerings, standing on the
    naive truth: the interpreted pipeline's
    :meth:`CompiledPolicy.evaluate_restricted`, the int-column domain and
    the generated scalar kernel — every one a ``MetricIndex`` user — must
    all equal the
    :class:`PolicyInterpreter`'s walk of the sorted lists, row by row.
    Returns the agreed output column for the caller's own path to be
    compared with."""
    policy = compiled.policy
    present = smbm.id_mask()
    base = [present & m for m in masks]
    reference = PolicyInterpreter(policy)
    expected = [reference.evaluate(smbm, mask=m).value for m in masks]
    assert [compiled.evaluate_restricted(smbm, m).value
            for m in masks] == expected, (
        f"interpreted pipeline disagrees on {policy.name}"
    )
    assert fold(policy, IntColumnDomain(smbm, base)) == expected, (
        f"int-column domain disagrees on {policy.name}"
    )
    kernel = PlanCodegen(policy).kernel(smbm)
    assert [kernel(b) for b in base] == expected, (
        f"scalar kernel disagrees on {policy.name}"
    )
    return expected


def _random_write(rng: random.Random, smbm: SMBM) -> None:
    rid = rng.randrange(CAP)
    metrics = {m: rng.randrange(VALUE_RANGE) for m in METRICS}
    if rid in smbm:
        if rng.random() < 0.5:
            smbm.delete(rid)
        else:
            smbm.update(rid, metrics)
    elif not smbm.is_full():
        smbm.add(rid, metrics)
    else:
        smbm.delete(rid)


def _random_stateless_node(rng: random.Random, depth: int) -> Node:
    """A random stateless policy node (batch-engine eligible shapes)."""
    if depth <= 0 or rng.random() < 0.3:
        attr = rng.choice(METRICS)
        kind = rng.randrange(3)
        if kind == 0:
            return predicate(
                TableRef(), attr, rng.choice(list(RelOp)),
                rng.randrange(-2, VALUE_RANGE + 2),
            )
        k = rng.choice((1, 1, 2))
        return (min_of if kind == 1 else max_of)(TableRef(), attr, k=k)
    if rng.random() < 0.55:
        combine = rng.choice([union, intersection, difference])
        return combine(
            _random_stateless_node(rng, depth - 1),
            _random_stateless_node(rng, depth - 1),
        )
    attr = rng.choice(METRICS)
    child = _random_stateless_node(rng, depth - 1)
    if rng.random() < 0.5:
        return predicate(child, attr, rng.choice(list(RelOp)),
                         rng.randrange(-2, VALUE_RANGE + 2))
    return (min_of if rng.random() < 0.5 else max_of)(child, attr)


def _random_stateless_root(rng: random.Random) -> Node:
    """A random policy root; Conditionals are only legal at the root
    (the selecting MUX lives in the RMT stage after the filter)."""
    if rng.random() < 0.25:
        return Conditional(
            primary=_random_stateless_node(rng, rng.randrange(2)),
            fallback=_random_stateless_node(rng, rng.randrange(2)),
        )
    return _random_stateless_node(rng, rng.randrange(3))


def _build_module(rng: random.Random, name: str, **kwargs) -> FilterModule:
    """A FilterModule over a random policy that fits the pipeline."""
    for attempt in range(50):
        node = _random_stateless_root(rng)
        try:
            return FilterModule(
                CAP, METRICS, Policy(node, name=f"{name}{attempt}"),
                PipelineParams(), **kwargs,
            )
        except CompilationError:
            continue
    raise AssertionError("no random policy compiled in 50 tries")


def _random_masked_batch(rng: random.Random, size: int) -> PacketBatch:
    masks = [
        None if rng.random() < 0.2 else rng.getrandbits(CAP)
        for _ in range(size)
    ]
    request = [rng.random() < 0.9 for _ in range(size)]
    return PacketBatch(size, request=request, input_masks=masks)


def _check_batch_matches_scalar(module: FilterModule,
                                batch: PacketBatch) -> None:
    """Every evaluated row equals the scalar path on the same mask (and,
    for masked rows, every lowering of the policy agrees on it)."""
    out_batch = module.evaluate_batch(batch)
    full_out = module.evaluate().value
    masks = batch.input_masks or [None] * batch.size
    masked = [row for row in range(batch.size)
              if batch.request[row] and masks[row] is not None]
    restricted = dict(zip(masked, agreed_outputs(
        module.compiled, module.smbm, [masks[row] for row in masked]
    )))
    for row in range(batch.size):
        if not batch.request[row]:
            assert out_batch.outputs[row] is None
            continue
        expected = restricted.get(row, full_out)
        assert out_batch.outputs[row] == expected, (
            f"row {row} (mask {masks[row]!r}) disagrees with scalar path"
        )
        if expected.bit_count() == 1:
            assert out_batch.selected[row] == expected.bit_length() - 1
        else:
            assert out_batch.selected[row] == -1


class TestBatchVsScalarDifferential:
    """Randomized policies x masks x table mutations."""

    def _run(self, rng: random.Random, *, rounds: int) -> int:
        cases = 0
        for round_no in range(rounds):
            module = _build_module(rng, f"p{round_no}")
            for _ in range(rng.randrange(3, 30)):
                _random_write(rng, module.smbm)
            for _ in range(3):
                batch = _random_masked_batch(rng, rng.randrange(1, 24))
                _check_batch_matches_scalar(module, batch)
                cases += batch.size
                # Mutations between batches must invalidate the memo and
                # the engine's per-version constants.
                _random_write(rng, module.smbm)
            uniform = PacketBatch.uniform(rng.randrange(1, 16))
            _check_batch_matches_scalar(module, uniform)
            cases += uniform.size
        return cases

    def test_randomized_cases(self, rng):
        assert self._run(rng, rounds=20) >= 200


def _path_rows(registry) -> dict[str, int]:
    """Batch rows served so far, by serving path (all modules summed)."""
    samples, _ = registry.collect()
    return {dict(s.labels)["path"]: s.value for s in samples
            if s.name == "filter_batch_path_rows_total"}


class TestServingPaths:
    def test_uniform_stateless_broadcasts(self, rng, registry):
        module = _build_module(rng, "bc")
        for _ in range(10):
            _random_write(rng, module.smbm)
        module.evaluate_batch(PacketBatch.uniform(16))
        assert registry.value_of("filter_batches_total") == 1
        assert _path_rows(registry) == {
            "broadcast": 16, "engine": 0, "fallback": 0}

    def test_masked_stateless_uses_engine(self, rng, registry):
        module = _build_module(rng, "eng")
        for _ in range(10):
            _random_write(rng, module.smbm)
        module.evaluate_batch(PacketBatch(8, input_masks=[1] * 8))
        assert _path_rows(registry) == {
            "broadcast": 0, "engine": 8, "fallback": 0}

    def test_stateful_policy_steps_its_units_per_row(self, rng, registry):
        """Stateful units advance per packet: the batch must step them
        row by row, matching a scalar loop exactly, on the kernel."""
        policy = Policy(round_robin(TableRef(), "a"), name="rr")
        batched = FilterModule(CAP, METRICS, policy, PipelineParams())
        scalar = FilterModule(CAP, METRICS, policy, PipelineParams())
        for rid in range(6):
            metrics = {m: rng.randrange(VALUE_RANGE) for m in METRICS}
            batched.smbm.add(rid, metrics)
            scalar.smbm.add(rid, metrics)
        batch = PacketBatch.uniform(9)
        batched.evaluate_batch(batch)
        expected = [scalar.evaluate().value for _ in range(9)]
        assert batch.outputs == expected
        assert len(set(expected)) > 1  # the round-robin actually advanced
        assert _path_rows(registry) == {
            "broadcast": 0, "engine": 9, "fallback": 0}

    def test_memoized_broadcast_reuses_version_cache(self, rng, registry):
        module = _build_module(rng, "memo")
        for _ in range(10):
            _random_write(rng, module.smbm)
        module.evaluate_batch(PacketBatch.uniform(8))
        hits_before = registry.value_of("filter_memo_hits_total")
        module.evaluate_batch(PacketBatch.uniform(8))
        assert registry.value_of("filter_memo_hits_total") > hits_before

    def test_empty_and_non_requesting_batches(self, rng):
        module = _build_module(rng, "empty")
        out = module.evaluate_batch(PacketBatch(0))
        assert out.size == 0
        quiet = PacketBatch(4, request=[False] * 4)
        module.evaluate_batch(quiet)
        assert quiet.outputs == [None] * 4


class TestBatchedEvaluatorGuards:
    def test_rejects_stateful_policies(self):
        with pytest.raises(ConfigurationError):
            BatchedEvaluator(
                Policy(round_robin(TableRef(), "a"), name="rr"), CAP
            )

    def test_rejects_caller_supplied_inputs(self):
        line = TableRef(input_index=1)
        with pytest.raises(ConfigurationError):
            BatchedEvaluator(
                Policy(min_of(line, "a"), name="idx", feedback={1: line}), CAP
            )

    def test_rejects_capacity_mismatch(self, rng):
        module = _build_module(rng, "cap")
        evaluator = BatchedEvaluator(module.compiled.policy, CAP * 2)
        with pytest.raises(ConfigurationError):
            evaluator.evaluate_masks(module.smbm, [1])

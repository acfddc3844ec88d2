"""Differential tests: mask-engine fast path vs the O(N) naive reference
(:mod:`repro.core.ufpu_reference` at unit level, the
:class:`~repro.core.policy.PolicyInterpreter` built on it at policy level).

Seeded-random sequences of SMBM writes interleaved with random predicates,
selectors and whole policies, asserting after every step that

* the fast path and the reference path produce bit-identical outputs,
* :meth:`SMBM.check_invariants` holds after every write (including the
  fast-path index/bitmask consistency checks),
* the version counter moves exactly with committed writes, and
* :class:`FilterModule` memoization serves unchanged tables from cache and
  invalidates on writes.

Together the suites below cover well over 1000 randomized (write x policy)
cases per run.
"""

from __future__ import annotations

import random

import pytest

from repro.core import ufpu_reference
from repro.core.bitvector import BitVector
from repro.core.compiler import CompiledPolicy, PolicyCompiler
from repro.core.operators import RelOp, UnaryOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Node,
    Policy,
    PolicyInterpreter,
    TableRef,
    Unary,
    difference,
    intersection,
    max_of,
    min_of,
    predicate,
    preorder_paths,
    random_pick,
    round_robin,
    union,
)
from repro.core.smbm import SMBM, MetricIndex
from repro.core.ufpu import UFPU, UnaryConfig
from repro.errors import CompilationError
from repro.switch.filter_module import FilterModule

CAP = 32
METRICS = ("a", "b")
# Small value range so sorted lists contain plenty of FIFO ties.
VALUE_RANGE = 16


def _random_write(rng: random.Random, smbm: SMBM) -> None:
    """One random add/delete/update keeping the table partially full."""
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


def _random_input(rng: random.Random) -> BitVector:
    return BitVector.from_int(CAP, rng.getrandbits(CAP))


def _random_selector_config(rng: random.Random) -> UnaryConfig:
    attr = rng.choice(METRICS)
    kind = rng.randrange(3)
    if kind == 0:
        return UnaryConfig(
            UnaryOp.PREDICATE,
            attr=attr,
            rel_op=rng.choice(list(RelOp)),
            val=rng.randrange(-2, VALUE_RANGE + 2),
        )
    return UnaryConfig(UnaryOp.MIN if kind == 1 else UnaryOp.MAX, attr=attr)


class _CountingList(list):
    """A list that counts its element reads."""

    reads = 0

    def __getitem__(self, item):
        self.reads += 1
        return super().__getitem__(item)


class TestMaskEngineVsBruteForce:
    """MetricIndex masks against a direct Python scan of the sorted list."""

    def test_predicate_min_max_masks(self):
        rng = random.Random(0xA5A5)
        smbm = SMBM(CAP, METRICS)
        for step in range(300):
            _random_write(rng, smbm)
            smbm.check_invariants()
            metric = rng.choice(METRICS)
            index = smbm.metric_index(metric)
            entries = smbm.attr_list(metric)
            inp = rng.getrandbits(CAP)

            rel = rng.choice(list(RelOp))
            val = rng.randrange(-2, VALUE_RANGE + 2)
            expect = 0
            for value, rid in entries:
                if rel.apply(value, val) and (inp >> rid) & 1:
                    expect |= 1 << rid
            assert index.predicate_mask(rel, val, inp) == expect, (
                f"step {step}: predicate({metric} {rel} {val}) mismatch"
            )

            valid_ranks = [r for r, (_v, rid) in enumerate(entries)
                           if (inp >> rid) & 1]
            expect_min = 1 << entries[valid_ranks[0]][1] if valid_ranks else 0
            expect_max = 1 << entries[valid_ranks[-1]][1] if valid_ranks else 0
            assert index.min_mask(inp) == expect_min, f"step {step}: min mismatch"
            assert index.max_mask(inp) == expect_max, f"step {step}: max mismatch"

            # Equation 1's K-select is the first / last k valid ranks —
            # ``inp`` carries ids the table does not hold, the cut falls
            # inside FIFO ties — found with one bisect over ``prefix``
            # whatever k: a read per halving plus the two ends.
            count = len(valid_ranks)
            counted = MetricIndex([(v, 0, rid) for v, rid in entries])
            counted.prefix = prefix = _CountingList(counted.prefix)
            for k in (0, 1, 2, 3, count, count + 1):
                for largest in (False, True):
                    ranks = (valid_ranks[max(count - k, 0):] if largest
                             else valid_ranks[:k])
                    prefix.reads = 0
                    assert counted.select_mask(inp, k, largest) == sum(
                        1 << entries[r][1] for r in ranks
                    ), f"step {step}: select(k={k}, largest={largest}) mismatch"
                    assert prefix.reads <= len(entries).bit_length() + 2


class TestUFPUFastVsReference:
    """Unit-level differential: >= 1000 randomized (write x operator) cases."""

    def test_randomized_cases(self):
        rng = random.Random(0xF117)
        smbm = SMBM(CAP, METRICS)
        cases = 0
        for _ in range(400):
            _random_write(rng, smbm)
            smbm.check_invariants()
            for _ in range(3):
                config = _random_selector_config(rng)
                inp = _random_input(rng)
                fast = UFPU(config).evaluate(inp, smbm)
                if config.opcode is UnaryOp.PREDICATE:
                    ref = ufpu_reference.naive_predicate(config, inp, smbm)
                else:
                    ref = ufpu_reference.naive_extreme(
                        config, inp, smbm,
                        want_min=config.opcode is UnaryOp.MIN)
                assert fast == ref, (
                    f"fast/reference disagree for {config.describe()} on "
                    f"input {inp!r}"
                )
                cases += 1
        assert cases >= 1000


def _random_policy_node(rng: random.Random, depth: int) -> Node:
    if depth <= 0 or rng.random() < 0.35:
        cfg = _random_selector_config(rng)
        child = TableRef()
        if cfg.opcode is UnaryOp.PREDICATE:
            return predicate(child, cfg.attr, cfg.rel_op, cfg.val)
        if cfg.opcode is UnaryOp.MIN:
            return min_of(child, cfg.attr)
        return max_of(child, cfg.attr)
    if rng.random() < 0.6:
        combine = rng.choice([union, intersection, difference])
        return combine(
            _random_policy_node(rng, depth - 1),
            _random_policy_node(rng, depth - 1),
        )
    child = _random_policy_node(rng, depth - 1)
    cfg = _random_selector_config(rng)
    if cfg.opcode is UnaryOp.PREDICATE:
        return predicate(child, cfg.attr, cfg.rel_op, cfg.val)
    if cfg.opcode is UnaryOp.MIN:
        return min_of(child, cfg.attr)
    return max_of(child, cfg.attr)


class TestCompiledPolicyDifferential:
    """Whole-pipeline differential: random policies over an evolving table."""

    def test_random_policies(self):
        rng = random.Random(0xD1FF)
        smbm = SMBM(CAP, METRICS)
        compiler = PolicyCompiler(PipelineParams())
        compiled_cases = 0
        attempts = 0
        while compiled_cases < 60 and attempts < 400:
            attempts += 1
            _random_write(rng, smbm)
            smbm.check_invariants()
            policy = Policy(_random_policy_node(rng, rng.randrange(3)),
                            name=f"rand{attempts}")
            try:
                fast = compiler.compile(policy)
            except CompilationError:
                continue  # policy exceeded the physical pipeline; try another
            ref = PolicyInterpreter(policy)
            assert fast.stateless
            # Several packets per policy, with writes in between.
            for _ in range(3):
                assert fast.evaluate(smbm) == ref.evaluate(smbm), (
                    f"fast/reference pipelines disagree for {policy.name}"
                )
                _random_write(rng, smbm)
                smbm.check_invariants()
            compiled_cases += 1
        assert compiled_cases >= 60, (
            f"only {compiled_cases} random policies compiled in {attempts} tries"
        )


class TestVersionCounter:
    def test_writes_bump_version(self):
        smbm = SMBM(CAP, METRICS)
        v0 = smbm.version
        smbm.add(3, {"a": 1, "b": 2})
        assert smbm.version == v0 + 1
        smbm.delete(3)
        assert smbm.version == v0 + 2

    def test_noop_delete_does_not_bump(self):
        smbm = SMBM(CAP, METRICS)
        v0 = smbm.version
        smbm.delete(7)  # absent: the paper's delete is a no-op
        assert smbm.version == v0

    def test_update_bumps(self):
        smbm = SMBM(CAP, METRICS)
        smbm.add(3, {"a": 1, "b": 2})
        v = smbm.version
        smbm.update(3, {"a": 5, "b": 2})
        assert smbm.version > v

    def test_reads_do_not_bump(self):
        smbm = SMBM(CAP, METRICS)
        smbm.add(3, {"a": 1, "b": 2})
        v = smbm.version
        smbm.id_vector()
        smbm.id_mask()
        smbm.metric_index("a")
        smbm.attr_list("b")
        smbm.check_invariants()
        assert smbm.version == v

    def test_id_mask_matches_id_vector(self):
        rng = random.Random(0x1D)
        smbm = SMBM(CAP, METRICS)
        for _ in range(50):
            _random_write(rng, smbm)
            assert smbm.id_vector().value == smbm.id_mask()


class TestFilterModuleMemoization:
    def _stateless_module(self) -> FilterModule:
        policy = Policy(predicate(TableRef(), "a", RelOp.LT, VALUE_RANGE // 2))
        module = FilterModule(CAP, METRICS, policy)
        for rid in range(8):
            module.update_resource(rid, {"a": rid * 2, "b": rid})
        return module

    def test_unchanged_table_hits_cache(self, registry):
        module = self._stateless_module()
        first = module.evaluate()
        second = module.evaluate()
        assert first == second
        assert registry.value_of("filter_memo_misses_total") == 1
        assert registry.value_of("filter_memo_hits_total") == 1
        assert registry.value_of("filter_evaluations_total") == 2

    def test_write_invalidates(self, registry):
        module = self._stateless_module()
        out = module.evaluate()
        assert registry.value_of("filter_memo_misses_total") == 1
        # Move resource 0 across the predicate threshold.
        module.update_resource(0, {"a": VALUE_RANGE, "b": 0})
        out2 = module.evaluate()
        assert registry.value_of("filter_memo_misses_total") == 2
        assert out2 != out
        assert not out2[0]

    def test_returned_vector_is_a_private_copy(self, registry):
        module = self._stateless_module()
        out = module.evaluate()
        out[0] = not out[0]  # caller-side mutation must not corrupt the memo
        fresh = module.evaluate()
        assert fresh != out
        assert registry.value_of("filter_memo_hits_total") == 1

    def test_stateful_policy_is_never_memoized(self, registry):
        policy = Policy(round_robin(TableRef(), "a"))
        module = FilterModule(CAP, METRICS, policy)
        for rid in range(4):
            module.update_resource(rid, {"a": 1, "b": 0})
        assert not module.compiled.stateless
        picks = [module.select() for _ in range(4)]
        assert sorted(picks) == [0, 1, 2, 3]  # round-robin advances per packet
        assert registry.value_of("filter_memo_hits_total") == 0
        assert registry.value_of("filter_memo_misses_total") == 0

    def test_memoization_agrees_with_reference_across_writes(self, registry):
        rng = random.Random(0xCAFE)
        policy = Policy(min_of(intersection(
            predicate(TableRef(), "a", RelOp.GE, 2),
            predicate(TableRef(), "b", RelOp.LE, VALUE_RANGE - 2),
        ), "b"))
        module = FilterModule(CAP, METRICS, policy)
        reference = PolicyInterpreter(policy)
        for _ in range(100):
            _random_write(rng, module.smbm)
            module.smbm.check_invariants()
            for _ in range(rng.randrange(1, 4)):  # repeats exercise the memo
                assert module.evaluate() == reference.evaluate(module.smbm)
        assert registry.value_of("filter_memo_hits_total") > 0
        assert registry.value_of("filter_memo_misses_total") > 0


def drill_shaped(d: int, m: int, attr: str) -> Policy:
    """DRILL(d, m) as :func:`repro.policies.portlb.drill_policy_ast` draws
    it, over metric ``attr`` instead of ``queue``."""
    examined = random_pick(TableRef(), d)
    feedback = {}
    if m:
        examined = union(examined,
                         min_of(TableRef(input_index=1), attr, k=m))
        feedback = {1: examined}
    return Policy(min_of(examined, attr), name=f"drill-d{d}-m{m}",
                  feedback=feedback)


def _stateful_builders() -> dict[str, callable]:
    """Policies whose selectors carry per-packet state (round-robin
    pointers, the LFSR); fresh ASTs per call (node ids are identity-based)."""

    def build_rr() -> Policy:
        return Policy(round_robin(TableRef(), "a"), name="rr")

    def build_rr_filtered() -> Policy:
        return Policy(
            round_robin(
                predicate(TableRef(), "a", RelOp.LT, VALUE_RANGE // 2), "a"
            ),
            name="rr-filtered",
        )

    def build_random() -> Policy:
        return Policy(random_pick(TableRef(), 1), name="random-1")

    def build_random_k2() -> Policy:
        return Policy(
            random_pick(predicate(TableRef(), "b", RelOp.GE, 2), 2),
            name="random-k2",
        )

    def build_fused_feedback() -> Policy:
        # The bound random unit is one its union parent would fuse were
        # the tap not a second consumer.
        fed = random_pick(TableRef(), 2)
        return Policy(
            union(fed, min_of(TableRef(input_index=1), "b")),
            name="fused-feedback", feedback={1: fed},
        )

    def build_feedback_only() -> Policy:
        # No stateful unit at all: the register alone makes it stateful.
        seen = union(predicate(TableRef(), "a", RelOp.LT, 4),
                     min_of(TableRef(input_index=1), "b", k=2))
        return Policy(min_of(seen, "a"), name="feedback-only",
                      feedback={1: seen})

    return {
        "rr": build_rr,
        "rr-filtered": build_rr_filtered,
        "random-1": build_random,
        "random-k2": build_random_k2,
        "fused-feedback": build_fused_feedback,
        "feedback-only": build_feedback_only,
        **{f"drill-d{d}-m{m}": lambda d=d, m=m: drill_shaped(d, m, "a")
           for d, m in ((2, 1), (4, 4), (3, 0))},
    }


def _stateful_unit_seed(compiled: CompiledPolicy, lfsr_seed: int) -> int:
    """The interpreter seed that hands its stateful unit the LFSR seed the
    pipeline gave the stateful K-UFPU of ``compiled``.  Cells take
    ``2 * chain + 1`` seeds each in stage-major order, a Cell's second side
    starting ``chain`` in; the interpreter gives every Unary before the
    stateful one in pre-order ``k + 1`` slots."""
    params = compiled.params
    slots_before = 0
    for node, _ in preorder_paths(compiled.policy.root):
        if isinstance(node, Unary):
            if node.config.opcode.is_stateful:
                break
            slots_before += max(1, node.config.k) + 1
    for s, stage in enumerate(compiled.config.stages):
        for c, cell in enumerate(stage.cells):
            for side, kufpu in enumerate((cell.kufpu1, cell.kufpu2)):
                if kufpu.opcode.is_stateful:
                    return (lfsr_seed + side * params.chain_length
                            + (s * params.cells_per_stage + c)
                            * (2 * params.chain_length + 1)
                            - slots_before)
    return lfsr_seed  # registers only: no seeded unit to align


class TestStatefulPolicyDifferential:
    """Stateful selectors against the naive interpreter, packet by packet.

    The interpreter runs the stateless subtrees (predicates, min/max)
    through the O(N) temp-list walk while the one stateful selector of
    every policy here is the same unit on both sides, so once it is
    handed the seed the pipeline gave that unit the two must agree on
    *every* packet — including how their internal state (round-robin
    pointers, LFSR, feedback registers) advances across interleaved table
    writes.
    """

    def test_stateful_fast_vs_reference_per_packet(self):
        compiler = PolicyCompiler(PipelineParams())
        for seed in (1, 7, 0xACE):
            for name, build in _stateful_builders().items():
                rng = random.Random(seed * 0x9E37 + len(name))
                smbm = SMBM(CAP, METRICS)
                for rid in range(CAP // 2):
                    smbm.add(
                        rid,
                        {m: rng.randrange(VALUE_RANGE) for m in METRICS},
                    )
                policy = build()
                fast = compiler.compile(policy, lfsr_seed=seed)
                assert not fast.stateless
                ref = PolicyInterpreter(
                    policy, lfsr_seed=_stateful_unit_seed(fast, seed))
                for packet in range(40):
                    # Every third packet carries a candidate mask: it
                    # restricts the table lines, never a register line.
                    mask = rng.getrandbits(CAP) if packet % 3 == 2 else None
                    out_fast = (fast.evaluate(smbm) if mask is None else
                                fast.evaluate_restricted(smbm, mask))
                    out_ref = ref.evaluate(smbm, mask=mask)
                    assert out_fast == out_ref, (
                        f"stateful fast/reference diverged: policy {name}, "
                        f"lfsr_seed {seed}, packet {packet}"
                    )
                    if packet % 4 == 3:  # writes between packets
                        _random_write(rng, smbm)
                        smbm.check_invariants()

    def test_round_robin_cycles_all_eligible_resources(self):
        smbm = SMBM(CAP, METRICS)
        for rid in range(6):
            smbm.add(rid, {"a": 1, "b": 0})
        compiled = PolicyCompiler(PipelineParams()).compile(
            Policy(round_robin(TableRef(), "a"), name="rr-cycle"))
        picks = []
        for _ in range(6):
            out = compiled.evaluate(smbm)
            chosen = [rid for rid in range(CAP) if out[rid]]
            assert len(chosen) == 1
            picks.append(chosen[0])
        assert sorted(picks) == list(range(6)), (
            "round-robin must visit every resource once"
        )

    def test_different_seeds_diverge_identical_seeds_agree(self):
        compiler = PolicyCompiler(PipelineParams())
        smbm = SMBM(CAP, METRICS)
        rng = random.Random(0x5EED)
        for rid in range(CAP):
            smbm.add(rid, {m: rng.randrange(VALUE_RANGE) for m in METRICS})

        def trace(seed: int) -> list:
            compiled = compiler.compile(
                Policy(random_pick(TableRef(), 1), name="rnd"),
                lfsr_seed=seed,
            )
            return [compiled.evaluate(smbm) for _ in range(24)]

        assert trace(3) == trace(3)
        assert trace(3) != trace(11), (
            "different LFSR seeds should produce different pick sequences"
        )


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])

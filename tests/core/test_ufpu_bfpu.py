"""Tests for the two filter processing units (section 5.2).

The key property: UFPU/BFPU outputs over the id-mask encoding equal a
reference for every opcode and random inputs — the paper's literal
temp-list walk (:mod:`repro.core.ufpu_reference`) for the UFPU, Python set
algebra for the BFPU.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bfpu import BFPU, BFPU_LATENCY_CYCLES, BinaryConfig
from repro.core.clocked import PipelineLatch
from repro.core.operators import BinaryOp, RelOp, UnaryOp
from repro.core.smbm import SMBM
from repro.core.ufpu import UFPU, UFPU_LATENCY_CYCLES, UnaryConfig
from repro.core.ufpu_reference import naive_extreme, naive_predicate
from repro.errors import ConfigurationError

CAP = 16
METRICS = ("x", "y")


def build_table(rows: dict[int, tuple[int, int]]) -> SMBM:
    smbm = SMBM(CAP, METRICS)
    for rid, (x, y) in rows.items():
        smbm.add(rid, {"x": x, "y": y})
    return smbm


def mask(ids) -> int:
    """The id-mask of a set of resource ids."""
    return sum(1 << i for i in set(ids))


def ids(bits: int) -> set[int]:
    """The resource ids an id-mask names."""
    return {i for i in range(bits.bit_length()) if (bits >> i) & 1}


rows_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=CAP - 1),
    st.tuples(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    ),
    max_size=CAP,
)
subset_strategy = st.sets(st.integers(min_value=0, max_value=CAP - 1))


class TestUnaryConfig:
    def test_predicate_requires_operands(self):
        with pytest.raises(ConfigurationError):
            UnaryConfig(UnaryOp.PREDICATE, attr="x")

    def test_min_requires_attr(self):
        with pytest.raises(ConfigurationError):
            UnaryConfig(UnaryOp.MIN)

    def test_random_takes_no_attr(self):
        with pytest.raises(ConfigurationError):
            UnaryConfig(UnaryOp.RANDOM, attr="x")

    def test_noop_takes_no_operands(self):
        with pytest.raises(ConfigurationError):
            UnaryConfig(UnaryOp.NO_OP, rel_op=RelOp.LT, val=3)

    def test_describe(self):
        cfg = UnaryConfig(UnaryOp.PREDICATE, attr="x", rel_op=RelOp.LT, val=3)
        assert cfg.describe() == "predicate(x < 3)"


class TestNoOp:
    def test_copies_input(self):
        smbm = build_table({1: (5, 5), 3: (2, 2)})
        inp = mask([1, 3])
        assert UFPU(UnaryConfig.no_op()).evaluate(inp, smbm) == inp


class TestPredicate:
    @pytest.mark.parametrize("rel_op", list(RelOp))
    def test_matches_reference_all_relops(self, rel_op):
        smbm = build_table({i: (i * 3 % 7, i) for i in range(10)})
        inp = mask(range(10))
        cfg = UnaryConfig(UnaryOp.PREDICATE, attr="x", rel_op=rel_op, val=3)
        out = UFPU(cfg).evaluate(inp, smbm)
        assert out == naive_predicate(cfg, inp, smbm)
        assert ids(out) == {i for i in range(10)
                            if rel_op.apply(i * 3 % 7, 3)}

    def test_respects_input_mask(self):
        smbm = build_table({0: (1, 0), 1: (1, 0), 2: (1, 0)})
        cfg = UnaryConfig(UnaryOp.PREDICATE, attr="x", rel_op=RelOp.EQ, val=1)
        assert ids(UFPU(cfg).evaluate(mask([1]), smbm)) == {1}

    def test_empty_input_gives_empty_output(self):
        smbm = build_table({0: (1, 0)})
        cfg = UnaryConfig(UnaryOp.PREDICATE, attr="x", rel_op=RelOp.GE, val=0)
        assert UFPU(cfg).evaluate(0, smbm) == 0

    @given(rows_strategy, subset_strategy, st.integers(min_value=0, max_value=100))
    @settings(max_examples=60)
    def test_property_matches_reference(self, rows, subset, val):
        smbm = build_table(rows)
        inp = mask(subset)
        for rel_op in RelOp:
            cfg = UnaryConfig(UnaryOp.PREDICATE, attr="y", rel_op=rel_op, val=val)
            out = UFPU(cfg).evaluate(inp, smbm)
            assert out == naive_predicate(cfg, inp, smbm)
            assert ids(out) == {rid for rid in subset & set(rows)
                                if rel_op.apply(rows[rid][1], val)}


class TestMinMax:
    def test_min_finds_smallest(self):
        smbm = build_table({0: (30, 0), 1: (10, 0), 2: (20, 0)})
        out = UFPU(UnaryConfig(UnaryOp.MIN, attr="x")).evaluate(
            mask([0, 1, 2]), smbm)
        assert ids(out) == {1}

    def test_max_finds_largest(self):
        smbm = build_table({0: (30, 0), 1: (10, 0), 2: (20, 0)})
        out = UFPU(UnaryConfig(UnaryOp.MAX, attr="x")).evaluate(
            mask([0, 1, 2]), smbm)
        assert ids(out) == {0}

    def test_min_respects_mask(self):
        """The min of the *masked* list, not the global min."""
        smbm = build_table({0: (1, 0), 1: (5, 0), 2: (9, 0)})
        out = UFPU(UnaryConfig(UnaryOp.MIN, attr="x")).evaluate(
            mask([1, 2]), smbm)
        assert ids(out) == {1}

    def test_min_tie_prefers_first_enqueued(self):
        smbm = build_table({})
        smbm.add(7, {"x": 4, "y": 0})
        smbm.add(2, {"x": 4, "y": 0})
        out = UFPU(UnaryConfig(UnaryOp.MIN, attr="x")).evaluate(
            mask([7, 2]), smbm)
        assert ids(out) == {7}

    def test_empty_input(self):
        smbm = build_table({0: (1, 1)})
        assert UFPU(UnaryConfig(UnaryOp.MIN, attr="x")).evaluate(0, smbm) == 0

    @given(rows_strategy, subset_strategy)
    @settings(max_examples=60)
    def test_property_matches_reference(self, rows, subset):
        smbm = build_table(rows)
        inp = mask(subset)
        for opcode, want_min in ((UnaryOp.MIN, True), (UnaryOp.MAX, False)):
            cfg = UnaryConfig(opcode, attr="x")
            out = UFPU(cfg).evaluate(inp, smbm)
            assert out == naive_extreme(cfg, inp, smbm, want_min=want_min)
            assert out.bit_count() == (1 if subset & set(rows) else 0)


class TestRandom:
    def test_output_is_singleton_member(self):
        smbm = build_table({i: (i, i) for i in range(8)})
        unit = UFPU(UnaryConfig(UnaryOp.RANDOM), lfsr_seed=5)
        for _ in range(50):
            out = unit.evaluate(mask(range(8)), smbm)
            assert out.bit_count() == 1
            assert ids(out) <= set(range(8))

    def test_covers_all_members_eventually(self):
        smbm = build_table({i: (i, i) for i in range(6)})
        unit = UFPU(UnaryConfig(UnaryOp.RANDOM), lfsr_seed=9)
        seen = set()
        for _ in range(300):
            seen |= ids(unit.evaluate(mask(range(6)), smbm))
        assert seen == set(range(6))

    def test_empty_input(self):
        smbm = build_table({0: (1, 1)})
        assert UFPU(UnaryConfig(UnaryOp.RANDOM)).evaluate(0, smbm) == 0


class TestRoundRobin:
    def picks(self, unit, inp, smbm, count):
        return [unit.evaluate(inp, smbm).bit_length() - 1
                for _ in range(count)]

    def test_unit_weights_cycle_fairly(self):
        """All weights 1: selections cycle through members in order."""
        smbm = build_table({i: (1, 0) for i in (2, 5, 9)})
        unit = UFPU(UnaryConfig(UnaryOp.ROUND_ROBIN, attr="x"))
        assert self.picks(unit, mask([2, 5, 9]), smbm, 6) == [2, 5, 9, 2, 5, 9]

    def test_weighted_selection_proportional(self):
        """Weight w entries get selected w times per round (section 4.1.1)."""
        smbm = build_table({1: (3, 0), 4: (1, 0)})
        unit = UFPU(UnaryConfig(UnaryOp.ROUND_ROBIN, attr="x"))
        assert self.picks(unit, mask([1, 4]), smbm, 8) == [1, 1, 1, 4, 1, 1, 1, 4]

    def test_skips_masked_entries(self):
        smbm = build_table({i: (1, 0) for i in range(4)})
        unit = UFPU(UnaryConfig(UnaryOp.ROUND_ROBIN, attr="x"))
        assert self.picks(unit, mask([0, 2]), smbm, 4) == [0, 2, 0, 2]

    def test_adapts_when_membership_changes(self):
        smbm = build_table({i: (1, 0) for i in range(3)})
        unit = UFPU(UnaryConfig(UnaryOp.ROUND_ROBIN, attr="x"))
        assert ids(unit.evaluate(mask([0, 1, 2]), smbm)) == {0}
        assert ids(unit.evaluate(mask([1, 2]), smbm)) == {1}

    def test_reset_state(self):
        smbm = build_table({i: (1, 0) for i in range(3)})
        unit = UFPU(UnaryConfig(UnaryOp.ROUND_ROBIN, attr="x"))
        inp = mask([0, 1, 2])
        unit.evaluate(inp, smbm)
        unit.evaluate(inp, smbm)
        unit.reset_state()
        assert ids(unit.evaluate(inp, smbm)) == {0}

    def test_empty_input(self):
        smbm = build_table({0: (1, 1)})
        unit = UFPU(UnaryConfig(UnaryOp.ROUND_ROBIN, attr="x"))
        assert unit.evaluate(0, smbm) == 0


class TestWidthValidation:
    def test_input_width_must_match_capacity(self):
        """A caller's mask naming an id >= N (or a negative int) is refused;
        the last in-range id is not."""
        smbm = build_table({0: (1, 1)})
        unit = UFPU(UnaryConfig.no_op())
        assert unit.evaluate(1 << (CAP - 1), smbm) == 1 << (CAP - 1)
        for bad in (1 << CAP, -1):
            with pytest.raises(ConfigurationError):
                unit.evaluate(bad, smbm)


class TestBFPU:
    def test_union_intersection_difference(self):
        a, b = mask([1, 2, 3]), mask([3, 4])
        assert ids(BFPU(BinaryConfig(BinaryOp.UNION)).evaluate(a, b)) == {
            1, 2, 3, 4,
        }
        assert ids(BFPU(BinaryConfig(BinaryOp.INTERSECTION)).evaluate(a, b)) == {3}
        assert ids(BFPU(BinaryConfig(BinaryOp.DIFFERENCE)).evaluate(a, b)) == {1, 2}

    def test_mux(self):
        a, b = 1 << 1, 1 << 2
        assert BFPU(BinaryConfig.passthrough(0)).evaluate(a, b) == a
        assert BFPU(BinaryConfig.passthrough(1)).evaluate(a, b) == b

    def test_noop_requires_choice(self):
        with pytest.raises(ConfigurationError):
            BinaryConfig(BinaryOp.NO_OP)

    def test_union_takes_no_choice(self):
        with pytest.raises(ConfigurationError):
            BinaryConfig(BinaryOp.UNION, choice=0)

    @given(
        st.sets(st.integers(min_value=0, max_value=31)),
        st.sets(st.integers(min_value=0, max_value=31)),
    )
    def test_property_matches_reference(self, a, b):
        va, vb = mask(a), mask(b)
        assert ids(BFPU(BinaryConfig(BinaryOp.UNION)).evaluate(va, vb)) == a | b
        assert ids(
            BFPU(BinaryConfig(BinaryOp.INTERSECTION)).evaluate(va, vb)
        ) == a & b
        assert ids(
            BFPU(BinaryConfig(BinaryOp.DIFFERENCE)).evaluate(va, vb)
        ) == a - b


class TestClockedUnits:
    """A unit's latency is its functional result latched for that many
    cycles: the one clocked primitive, driven directly."""

    def test_ufpu_latency_two_cycles(self):
        smbm = build_table({0: (1, 1), 1: (2, 2)})
        unit = UFPU(UnaryConfig(UnaryOp.MIN, attr="x"))
        latch = PipelineLatch(UFPU_LATENCY_CYCLES)
        latch.issue(unit.evaluate(mask([0, 1]), smbm))
        assert latch.tick() is None
        assert latch.tick() == mask([0])
        assert UFPU_LATENCY_CYCLES == 2

    def test_ufpu_fully_pipelined(self):
        smbm = build_table({i: (i, i) for i in range(4)})
        unit = UFPU(UnaryConfig(UnaryOp.MIN, attr="x"))
        latch = PipelineLatch(UFPU_LATENCY_CYCLES)
        results = []
        for i in range(4):
            latch.issue(unit.evaluate(mask([i]), smbm))
            results.append(latch.tick())
        results.append(latch.tick())
        results.append(latch.tick())
        picked = [ids(r) for r in results if r is not None]
        assert picked == [{0}, {1}, {2}, {3}]

    def test_bfpu_latency_one_cycle(self):
        unit = BFPU(BinaryConfig(BinaryOp.UNION))
        latch = PipelineLatch(BFPU_LATENCY_CYCLES)
        latch.issue(unit.evaluate(1 << 0, 1 << 1))
        assert latch.tick() == mask([0, 1])
        assert BFPU_LATENCY_CYCLES == 1

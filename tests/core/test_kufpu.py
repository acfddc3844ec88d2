"""Tests for the K-UFPU parallel chain (section 5.3.1, Equation 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kufpu import KUFPU, KUnaryConfig
from repro.core.operators import RelOp, UnaryOp
from repro.core.smbm import SMBM
from repro.core.ufpu import UFPU, UFPU_LATENCY_CYCLES, UnaryConfig
from repro.errors import ConfigurationError
from tests.core.test_ufpu_bfpu import ids

CAP = 16


def build(rows: dict[int, int]) -> SMBM:
    smbm = SMBM(CAP, ["x"])
    for rid, x in rows.items():
        smbm.add(rid, {"x": x})
    return smbm


rows_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=CAP - 1),
    st.integers(min_value=0, max_value=100),
    max_size=CAP,
)


class TestConfig:
    def test_k_must_fit_chain(self):
        with pytest.raises(ConfigurationError):
            KUFPU(2, KUnaryConfig(UnaryOp.MIN, k=3, attr="x"))

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigurationError):
            KUnaryConfig(UnaryOp.MIN, k=-1, attr="x")

    def test_noop_chain_beyond_one_rejected(self):
        with pytest.raises(ConfigurationError):
            KUnaryConfig(UnaryOp.NO_OP, k=2)

    def test_operand_validation_delegates(self):
        with pytest.raises(ConfigurationError):
            KUnaryConfig(UnaryOp.PREDICATE, k=2, attr="x")  # missing rel_op/val

    def test_describe(self):
        assert KUnaryConfig(UnaryOp.MIN, k=4, attr="x").describe() == "K=4, min(x)"


class TestKEqualsOne:
    """With K=1 a K-UFPU is functionally equivalent to a UFPU (section 5.3.1)."""

    @given(rows_strategy)
    @settings(max_examples=40)
    def test_min_equivalent_to_plain_ufpu(self, rows):
        smbm = build(rows)
        inp = smbm.id_mask()
        chain = KUFPU(4, KUnaryConfig(UnaryOp.MIN, k=1, attr="x"))
        unit = UFPU(UnaryConfig(UnaryOp.MIN, attr="x"))
        assert chain.evaluate(inp, smbm) == unit.evaluate(inp, smbm)

    @given(rows_strategy, st.integers(min_value=0, max_value=100))
    @settings(max_examples=40)
    def test_predicate_equivalent_to_plain_ufpu(self, rows, val):
        smbm = build(rows)
        inp = smbm.id_mask()
        chain = KUFPU(
            4, KUnaryConfig(UnaryOp.PREDICATE, k=1, attr="x", rel_op=RelOp.LT, val=val)
        )
        unit = UFPU(
            UnaryConfig(UnaryOp.PREDICATE, attr="x", rel_op=RelOp.LT, val=val)
        )
        assert chain.evaluate(inp, smbm) == unit.evaluate(inp, smbm)


class TestTopK:
    def test_k_min_returns_k_smallest(self):
        smbm = build({0: 50, 1: 10, 2: 30, 3: 20, 4: 40})
        chain = KUFPU(4, KUnaryConfig(UnaryOp.MIN, k=3, attr="x"))
        out = chain.evaluate(smbm.id_mask(), smbm)
        assert ids(out) == {1, 3, 2}

    def test_k_max_returns_k_largest(self):
        smbm = build({0: 50, 1: 10, 2: 30, 3: 20, 4: 40})
        chain = KUFPU(4, KUnaryConfig(UnaryOp.MAX, k=2, attr="x"))
        out = chain.evaluate(smbm.id_mask(), smbm)
        assert ids(out) == {0, 4}

    def test_k_larger_than_population_returns_all(self):
        smbm = build({0: 5, 1: 6})
        chain = KUFPU(8, KUnaryConfig(UnaryOp.MIN, k=8, attr="x"))
        out = chain.evaluate(smbm.id_mask(), smbm)
        assert ids(out) == {0, 1}

    @given(rows_strategy, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60)
    def test_property_k_min_is_k_smallest(self, rows, k):
        smbm = build(rows)
        chain = KUFPU(8, KUnaryConfig(UnaryOp.MIN, k=k, attr="x"))
        out = chain.evaluate(smbm.id_mask(), smbm)
        expected_order = [rid for _v, rid in smbm.attr_list("x")]
        assert ids(out) == set(expected_order[:k])


class TestKRandom:
    def test_k_distinct_random_picks(self):
        """A chain of random operators filters K *unique* entries (4.2.1)."""
        smbm = build({i: i for i in range(10)})
        chain = KUFPU(4, KUnaryConfig(UnaryOp.RANDOM, k=4), lfsr_seed=3)
        for _ in range(30):
            out = chain.evaluate(smbm.id_mask(), smbm)
            assert out.bit_count() == 4
            assert ids(out) <= set(range(10))

    def test_k_random_exhausts_small_population(self):
        smbm = build({1: 0, 5: 0})
        chain = KUFPU(4, KUnaryConfig(UnaryOp.RANDOM, k=4))
        out = chain.evaluate(smbm.id_mask(), smbm)
        assert ids(out) == {1, 5}


class TestPredicateChain:
    def test_k2_predicate_same_as_k1(self):
        """Second predicate unit sees only non-matching entries: no effect."""
        smbm = build({i: i for i in range(8)})
        k1 = KUFPU(4, KUnaryConfig(UnaryOp.PREDICATE, k=1, attr="x",
                                   rel_op=RelOp.LT, val=4))
        k2 = KUFPU(4, KUnaryConfig(UnaryOp.PREDICATE, k=2, attr="x",
                                   rel_op=RelOp.LT, val=4))
        inp = smbm.id_mask()
        assert k1.evaluate(inp, smbm) == k2.evaluate(inp, smbm)


class TestChainMechanics:
    def test_noop_chain_copies_input(self):
        smbm = build({0: 1, 3: 2})
        chain = KUFPU(4, KUnaryConfig.no_op())
        assert chain.evaluate(1 << 3, smbm) == 1 << 3

    def test_latency_deterministic_in_chain_length(self):
        chain = KUFPU(6, KUnaryConfig(UnaryOp.MIN, k=2, attr="x"))
        assert chain.latency_cycles == 6 * UFPU_LATENCY_CYCLES

    def test_empty_input(self):
        smbm = build({0: 1})
        chain = KUFPU(4, KUnaryConfig(UnaryOp.MIN, k=4, attr="x"))
        assert chain.evaluate(0, smbm) == 0

    def test_equation_one_invariant(self):
        """O = union of per-unit outputs; outputs disjoint because each unit
        sees the previous input minus the previous output."""
        smbm = build({i: 10 - i for i in range(10)})
        chain = KUFPU(8, KUnaryConfig(UnaryOp.MIN, k=5, attr="x"))
        out = chain.evaluate(smbm.id_mask(), smbm)
        assert out.bit_count() == 5  # disjoint singletons

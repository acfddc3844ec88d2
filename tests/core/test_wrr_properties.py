"""Property tests for the weighted round-robin operator (section 4.1.1).

"It outputs a list comprising a single entry chosen cyclically from table1
in proportion to the entry's weight."
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import UnaryOp
from repro.core.smbm import SMBM
from repro.core.ufpu import UFPU, UnaryConfig

CAP = 16


def build(weights: dict[int, int]) -> SMBM:
    smbm = SMBM(CAP, ["w"])
    for rid, w in weights.items():
        smbm.add(rid, {"w": w})
    return smbm


weights_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=CAP - 1),
    st.integers(min_value=1, max_value=5),
    min_size=1,
    max_size=6,
)


class TestProportionality:
    @given(weights_strategy)
    @settings(max_examples=50, deadline=None)
    def test_selections_proportional_to_weight(self, weights):
        """Over whole rounds, entry i is selected exactly weight_i times."""
        smbm = build(weights)
        unit = UFPU(UnaryConfig(UnaryOp.ROUND_ROBIN, attr="w"))
        inp = smbm.id_mask()
        round_len = sum(weights.values())
        counts = Counter()
        for _ in range(3 * round_len):
            picked = unit.evaluate(inp, smbm).bit_length() - 1
            counts[picked] += 1
        for rid, weight in weights.items():
            assert counts[rid] == 3 * weight

    @given(weights_strategy)
    @settings(max_examples=50, deadline=None)
    def test_cyclic_order_by_resource_id(self, weights):
        """Entries are served in increasing id order, wrapping around."""
        smbm = build(weights)
        unit = UFPU(UnaryConfig(UnaryOp.ROUND_ROBIN, attr="w"))
        inp = smbm.id_mask()
        round_len = sum(weights.values())
        picks = [
            unit.evaluate(inp, smbm).bit_length() - 1
            for _ in range(round_len)
        ]
        # Collapse consecutive repeats: the visit order of distinct ids.
        visit_order = [picks[0]]
        for p in picks[1:]:
            if p != visit_order[-1]:
                visit_order.append(p)
        assert visit_order == sorted(weights)

    @given(weights_strategy, st.integers(min_value=0, max_value=CAP - 1))
    @settings(max_examples=50, deadline=None)
    def test_deleted_entry_skipped_without_stall(self, weights, removed):
        smbm = build(weights)
        unit = UFPU(UnaryConfig(UnaryOp.ROUND_ROBIN, attr="w"))
        inp = smbm.id_mask()
        unit.evaluate(inp, smbm)  # establish some position
        if removed in smbm and len(weights) > 1:
            smbm.delete(removed)
            inp = smbm.id_mask()
        for _ in range(8):
            out = unit.evaluate(inp, smbm)
            assert out.bit_count() == 1
            assert out.bit_length() - 1 in smbm.ids()

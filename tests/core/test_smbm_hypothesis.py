"""Property-based SMBM tests (hypothesis): random write sequences preserve
sortedness and bidirectional-map consistency, the fast-path MetricIndex
always agrees with a naive scan of the sorted lists, and an index patched
in place across writes equals one built from scratch."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import obs  # noqa: E402
from repro.core.operators import RelOp  # noqa: E402
from repro.core.smbm import PENDING_LIMIT, SMBM, MetricIndex  # noqa: E402
from repro.errors import IntegrityError, SimulationError  # noqa: E402

CAP = 16
METRICS = ("a", "b")
VALUE_RANGE = 8  # tiny range: lots of FIFO ties in the sorted lists

# One SMBM write: (resource id, op selector, metric values).
_write = st.tuples(
    st.integers(0, CAP - 1),
    st.sampled_from(["add", "update", "delete"]),
    st.tuples(st.integers(0, VALUE_RANGE - 1), st.integers(0, VALUE_RANGE - 1)),
)
_writes = st.lists(_write, max_size=80)


def _apply(smbm: SMBM, model: dict[int, dict[str, int]],
           rid: int, op: str, values: tuple[int, int]) -> None:
    """Apply one write to both the SMBM and the plain-dict model."""
    metrics = dict(zip(METRICS, values))
    if op == "delete":
        smbm.delete(rid)  # the paper's delete: no-op when absent
        model.pop(rid, None)
    elif op == "add" and rid not in model and len(model) < CAP:
        smbm.add(rid, metrics)
        model[rid] = metrics
    elif rid in model:  # add on present / update on present -> update
        smbm.update(rid, metrics)
        model[rid] = metrics
    # add on a full table / update on absent: skipped, not part of the API


class TestWriteSequences:
    @given(_writes)
    def test_invariants_and_model_agreement(self, writes):
        smbm = SMBM(CAP, METRICS)
        model: dict[int, dict[str, int]] = {}
        for rid, op, values in writes:
            _apply(smbm, model, rid, op, values)
            smbm.check_invariants()
        assert smbm.snapshot() == model
        assert len(smbm) == len(model)
        assert smbm.ids() == sorted(model)
        assert smbm.id_mask() == sum(1 << rid for rid in model)

    @given(_writes)
    def test_dimension_lists_stay_sorted_with_fifo_ties(self, writes):
        smbm = SMBM(CAP, METRICS)
        model: dict[int, dict[str, int]] = {}
        for rid, op, values in writes:
            _apply(smbm, model, rid, op, values)
            for metric in METRICS:
                entries = smbm.attr_list(metric)
                assert [v for v, _ in entries] == sorted(
                    v for v, _ in entries
                ), f"{metric} list lost sortedness"
                assert {rid_ for _, rid_ in entries} == set(model)

    @given(_writes)
    def test_bidirectional_pointers_round_trip(self, writes):
        smbm = SMBM(CAP, METRICS)
        model: dict[int, dict[str, int]] = {}
        for rid, op, values in writes:
            _apply(smbm, model, rid, op, values)
        for metric in METRICS:
            entries = smbm.attr_list(metric)
            for rid in model:
                # forward map: id -> value matches the model
                assert smbm.metric_of(rid, metric) == model[rid][metric]
                # reverse map: id -> rank lands on this id's entry
                rank = smbm.rank_of(rid, metric)
                assert entries[rank] == (model[rid][metric], rid)

    @given(_writes)
    def test_version_moves_exactly_with_committed_writes(self, writes):
        smbm = SMBM(CAP, METRICS)
        model: dict[int, dict[str, int]] = {}
        for rid, op, values in writes:
            before = smbm.version
            size_before = len(model)
            present = rid in model
            _apply(smbm, model, rid, op, values)
            delta = smbm.version - before
            if op == "delete":
                assert delta == (1 if present else 0)
            elif present:
                assert delta == 2  # update = delete + add
            elif len(model) > size_before:
                assert delta == 1  # committed add
            else:
                assert delta == 0  # rejected (full table)


class TestMetricIndexAgainstNaiveScan:
    @given(
        _writes,
        st.sampled_from(METRICS),
        st.sampled_from(list(RelOp)),
        st.integers(-2, VALUE_RANGE + 2),
        st.integers(0, 2 ** CAP - 1),
    )
    @settings(max_examples=200)
    def test_masks_match_naive_scan(self, writes, metric, rel, val, inp):
        smbm = SMBM(CAP, METRICS)
        model: dict[int, dict[str, int]] = {}
        for rid, op, values in writes:
            _apply(smbm, model, rid, op, values)
        index = smbm.metric_index(metric)
        entries = smbm.attr_list(metric)

        expect = 0
        for value, rid in entries:
            if rel.apply(value, val) and (inp >> rid) & 1:
                expect |= 1 << rid
        assert index.predicate_mask(rel, val, inp) == expect

        live_ranks = [r for r, (_v, rid) in enumerate(entries)
                      if (inp >> rid) & 1]
        assert index.min_mask(inp) == (
            1 << entries[live_ranks[0]][1] if live_ranks else 0
        )
        assert index.max_mask(inp) == (
            1 << entries[live_ranks[-1]][1] if live_ranks else 0
        )

    @given(_writes, st.sampled_from(METRICS))
    def test_same_object_then_equals_fresh(self, writes, metric):
        with obs.use_registry() as reg:
            smbm = SMBM(CAP, METRICS)
            model: dict[int, dict[str, int]] = {}
            for rid, op, values in writes:
                _apply(smbm, model, rid, op, values)
            first = smbm.metric_index(metric)
            work = (reg.value_of("smbm_index_rebuilds_total"),
                    reg.value_of("smbm_index_patches_total"))
            # Unwritten: the same object, and neither a build nor a patch.
            assert smbm.metric_index(metric) is first
            assert not first.pending
            assert (reg.value_of("smbm_index_rebuilds_total"),
                    reg.value_of("smbm_index_patches_total")) == work
            # Written: whatever object comes back equals a fresh build.
            free = next((r for r in range(CAP) if r not in model), None)
            if free is not None:
                smbm.add(free, {m: 0 for m in METRICS})
            elif model:
                smbm.update(min(model), {m: VALUE_RANGE for m in METRICS})
            _assert_equals_fresh(smbm, metric)


# ======================================================================================
# Patched index == fresh index, whatever was written and whoever read in between
# ======================================================================================

LAG_METRICS = ("a", "b", "c")
ARRAYS = ("values", "prefix")


def _fresh(smbm: SMBM, metric: str) -> MetricIndex:
    """An index built from nothing but the public sorted list."""
    return MetricIndex([(v, 0, rid) for v, rid in smbm.attr_list(metric)])


def _assert_equals_fresh(smbm: SMBM, metric: str) -> None:
    index, fresh = smbm.metric_index(metric), _fresh(smbm, metric)
    assert not index.pending
    for array in ARRAYS:
        assert getattr(index, array) == getattr(fresh, array), (metric, array)


_values3 = st.tuples(*[st.integers(0, 3)] * len(LAG_METRICS))  # heavy ties
# One step: (kind, row selector, values, metric, bit, metrics to read).
# Updates are the common write, as they are in serving; reading a *subset*
# leaves the other indexes lagging by more moves.
_step = st.tuples(
    st.sampled_from(["update"] * 4 + ["read"] * 3 + ["add", "delete"] * 2 + [
        "repair", "corrupt", "export", "restore"]),
    st.integers(0, 255), _values3, st.sampled_from(LAG_METRICS),
    st.integers(0, 2), st.sets(st.sampled_from(LAG_METRICS), min_size=1),
)


class TestPatchedIndexEqualsFreshIndex:
    @given(st.sampled_from([1, 2, 64, 96]), st.data())
    @settings(max_examples=150)
    def test_any_interleaving_of_writes_and_partial_reads(self, cap, data):
        smbm = SMBM(cap, LAG_METRICS)
        for rid in range(data.draw(st.integers(0, cap), label="prefill")):
            smbm.add(rid, dict(zip(LAG_METRICS, data.draw(_values3))))
        for metric in data.draw(st.sets(st.sampled_from(LAG_METRICS))):
            smbm.metric_index(metric)
        saved = None
        steps = data.draw(st.lists(_step, max_size=50), label="steps")
        for kind, selector, values, metric, bit, to_read in steps:
            rid = selector % cap
            row = dict(zip(LAG_METRICS, values))
            if kind == "add":
                if rid not in smbm and not smbm.is_full():
                    smbm.add(rid, row)
            elif kind == "delete":
                smbm.delete(rid)
            elif kind == "export":
                saved = smbm.export_state()
            elif kind == "restore":
                if saved is not None:
                    smbm.restore_state(saved)
            elif kind == "read":
                for name in to_read:
                    _assert_equals_fresh(smbm, name)
            elif rid not in smbm:
                pass  # the rest rewrite a stored row
            elif kind == "update":
                smbm.update(rid, row)
            elif kind == "repair":
                smbm.repair_row(rid, row)
            else:
                smbm.corrupt_stored_bit(rid, metric, bit)
        for metric in LAG_METRICS:
            _assert_equals_fresh(smbm, metric)
        smbm.check_invariants()

    @staticmethod
    def _ladder(n: int = 64) -> SMBM:
        """Rows 0..n-1 with value 10*rid: rank == id, and live indexes."""
        smbm = SMBM(n, LAG_METRICS)
        for rid in range(n):
            smbm.add(rid, {m: 10 * rid for m in LAG_METRICS})
        for metric in LAG_METRICS:
            smbm.metric_index(metric)
        return smbm

    @pytest.mark.parametrize("rid, value, a, b", [
        (5, 405, 5, 40),     # a < b
        (40, 45, 40, 5),     # a > b
        (20, 201, 20, 20),   # a == b, value changed
        (20, 200, 20, 20),   # a == b, nothing changed
        (30, -1, 30, 0),     # to rank 0
        (30, 10_000, 30, 63),  # to rank n-1
        (0, 10_000, 0, 63),  # end to end
        (63, -1, 63, 0),
        (7, 80, 7, 8),       # lands behind its equal (FIFO tie)
    ])
    def test_one_update_is_one_move_between_the_two_ranks(self, rid, value, a, b):
        smbm = self._ladder()
        index = smbm.metric_index("a")
        smbm.update(rid, {"a": value, "b": 10 * rid, "c": 10 * rid})
        assert index.pending == [(a, b, rid, value)]
        assert smbm.rank_of(rid, "a") == b
        for metric in LAG_METRICS:
            _assert_equals_fresh(smbm, metric)
        assert smbm.metric_index("a") is index  # patched, not replaced

    def test_lone_add_and_delete_are_patched_too(self):
        smbm = self._ladder()
        index = smbm.metric_index("a")
        for rid in (0, 63, 31):
            smbm.delete(rid)
            _assert_equals_fresh(smbm, "a")
        for rid, value in ((31, -5), (0, 10_000), (63, 300)):
            smbm.add(rid, {m: value for m in LAG_METRICS})
            _assert_equals_fresh(smbm, "a")
        assert smbm.metric_index("a") is index
        for metric in LAG_METRICS:  # "b" and "c" lagged by all six writes
            _assert_equals_fresh(smbm, metric)

    def test_one_write_past_the_pending_limit_drops_the_index(self):
        smbm = self._ladder()
        index = smbm.metric_index("a")
        for i in range(PENDING_LIMIT):
            smbm.update(i, {m: 1000 + i for m in LAG_METRICS})
        assert len(index.pending) == PENDING_LIMIT
        _assert_equals_fresh(smbm, "a")          # at the limit: patched
        assert smbm.metric_index("a") is index
        for i in range(PENDING_LIMIT + 1):
            smbm.update(i, {m: 2000 + i for m in LAG_METRICS})
        assert smbm.metric_index("a") is not index  # past it: rebuilt
        for metric in LAG_METRICS:
            _assert_equals_fresh(smbm, metric)

    def test_restore_drops_the_live_indexes(self):
        smbm = self._ladder()
        saved = smbm.export_state()
        smbm.update(3, {m: 500 for m in LAG_METRICS})
        _assert_equals_fresh(smbm, "a")  # "b", "c" keep the move pending
        smbm.restore_state(saved)
        for metric in LAG_METRICS:
            _assert_equals_fresh(smbm, metric)

    def test_sanitizer_catches_a_tampered_prefix_word(self):
        smbm = SMBM(16, LAG_METRICS, sanitize=True)
        for rid in range(8):
            smbm.add(rid, {m: rid for m in LAG_METRICS})
        index = smbm.metric_index("b")
        smbm.check_invariants()
        index.prefix[3] ^= 1 << 7  # ends and values still look right
        with pytest.raises(SimulationError, match="b fast-path index prefix"):
            smbm.check_invariants()
        with pytest.raises(IntegrityError):
            smbm.update(1, {m: 9 for m in LAG_METRICS})


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])

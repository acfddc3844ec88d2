"""Unit, property, and cycle-accuracy tests for the SMBM (section 5.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.smbm import (
    SMBM,
    STORED_WORD_BITS,
    WRITE_LATENCY_CYCLES,
    ClockedSMBM,
)
from repro.errors import CapacityError, ConfigurationError


def make_smbm(capacity=8, metrics=("x", "y")):
    return SMBM(capacity, metrics)


class TestConstruction:
    def test_requires_positive_capacity(self):
        with pytest.raises(ConfigurationError):
            SMBM(0, ["x"])

    def test_requires_metrics(self):
        with pytest.raises(ConfigurationError):
            SMBM(4, [])

    def test_rejects_duplicate_metrics(self):
        with pytest.raises(ConfigurationError):
            SMBM(4, ["x", "x"])

    def test_schema_exposed(self):
        s = make_smbm()
        assert s.metric_names == ("x", "y")
        assert s.capacity == 8


class TestAddDelete:
    def test_add_then_lookup(self):
        s = make_smbm()
        s.add(3, {"x": 10, "y": 20})
        assert 3 in s
        assert s.metric_of(3, "x") == 10
        assert s.metrics_of(3) == {"x": 10, "y": 20}

    def test_add_duplicate_id_rejected(self):
        s = make_smbm()
        s.add(1, {"x": 1, "y": 1})
        with pytest.raises(ConfigurationError):
            s.add(1, {"x": 2, "y": 2})

    def test_add_out_of_range_id_rejected(self):
        s = make_smbm()
        with pytest.raises(CapacityError):
            s.add(8, {"x": 1, "y": 1})
        with pytest.raises(CapacityError):
            s.add(-1, {"x": 1, "y": 1})

    def test_add_wrong_schema_rejected(self):
        s = make_smbm()
        with pytest.raises(ConfigurationError):
            s.add(0, {"x": 1})
        with pytest.raises(ConfigurationError):
            s.add(0, {"x": 1, "y": 1, "z": 1})

    def test_capacity_enforced(self):
        s = SMBM(2, ["x"])
        s.add(0, {"x": 1})
        s.add(1, {"x": 2})
        with pytest.raises(CapacityError):
            s.add(2, {"x": 3})  # id out of range doubles as the limit here

    def test_delete_absent_is_noop(self):
        s = make_smbm()
        s.delete(5)  # paper: "deletes ... if present"
        assert len(s) == 0

    def test_delete_removes_everywhere(self):
        s = make_smbm()
        s.add(2, {"x": 5, "y": 6})
        s.add(4, {"x": 1, "y": 9})
        s.delete(2)
        assert 2 not in s
        assert s.ids() == [4]
        assert s.attr_list("x") == [(1, 4)]
        s.check_invariants()

    def test_update_is_delete_add(self):
        s = make_smbm()
        s.add(1, {"x": 5, "y": 5})
        s.update(1, {"x": 7, "y": 2})
        assert s.metrics_of(1) == {"x": 7, "y": 2}
        s.check_invariants()


class TestRefusedWritesLeaveTheTableUntouched:
    """A write is checked in full before its first mutation."""

    @pytest.mark.parametrize("rid, bad, error", [
        (1, {"x": 5}, ConfigurationError),              # a metric missing
        (1, {"x": 5, "y": 1, "z": 2}, ConfigurationError),
        (1, {"x": "fast", "y": 1}, ConfigurationError),  # was a bare ValueError
        (1, {"x": 5, "y": None}, ConfigurationError),
        (1, {"x": 2.5, "y": 1}, ConfigurationError),    # was silently 2
        (8, {"x": 5, "y": 1}, CapacityError),           # update of absent = add
        # Outside the unsigned stored word the analyser, TH003 and the ECC
        # assume (both were once stored).
        (0, {"x": -1, "y": 1}, ConfigurationError),
        (0, {"x": 5, "y": 2**STORED_WORD_BITS}, ConfigurationError),
    ])
    @pytest.mark.parametrize("write", ["add", "update"])
    def test_bad_row_changes_nothing(self, write, rid, bad, error):
        s = make_smbm()
        s.add(1, {"x": 5, "y": 5})
        s.add(2, {"x": 3, "y": 9})
        index = s.metric_index("x")
        seen = []
        s.add_write_listener(lambda *event: seen.append(event))
        before = (s.snapshot(), s.version, s.attr_list("x"), s.attr_list("y"),
                  s.export_state())
        masks = (list(index.below), [list(loc) for loc in index.local])
        with pytest.raises(error):
            getattr(s, write)(rid, bad)
        assert 1 in s
        assert before == (s.snapshot(), s.version, s.attr_list("x"),
                          s.attr_list("y"), s.export_state())
        assert s.metric_index("x") is index
        assert masks == (index.below, index.local)
        assert seen == []
        s.check_invariants()

    @pytest.mark.parametrize("bad", [-1, 2**STORED_WORD_BITS, 2.7, "3"])
    def test_repair_refuses_what_a_write_refuses(self, bad):
        """A scrubber's corrected row passes the same guard as a write,
        before its first word moves (it once stored -1 and 2**64, and
        truncated 2.7 to 2)."""
        s = make_smbm()
        s.add(0, {"x": 5, "y": 5})
        s.add(1, {"x": 3, "y": 9})
        s.metric_index("x")
        seen = []
        s.add_write_listener(lambda *event: seen.append(event))
        before = (s.export_state(), s.attr_list("x"), s.attr_list("y"))
        with pytest.raises(ConfigurationError):
            s.repair_row(0, {"x": 4, "y": bad})
        assert (s.export_state(), s.attr_list("x"), s.attr_list("y")) == before
        assert seen == []
        s.check_invariants()

    def test_update_on_a_full_table_still_replaces_the_row(self):
        s = make_smbm(capacity=2)
        s.add(0, {"x": 1, "y": 1})
        s.add(1, {"x": 2, "y": 2})
        s.update(1, {"x": 0, "y": 0})
        assert s.attr_list("x") == [(0, 1), (1, 0)]


class TestSortedLists:
    def test_lists_sorted_increasing(self):
        s = make_smbm()
        s.add(0, {"x": 30, "y": 1})
        s.add(1, {"x": 10, "y": 3})
        s.add(2, {"x": 20, "y": 2})
        assert s.attr_list("x") == [(10, 1), (20, 2), (30, 0)]
        assert s.attr_list("y") == [(1, 0), (2, 2), (3, 1)]

    def test_fifo_tie_break(self):
        """Equal values keep enqueue order (section 5.1)."""
        s = make_smbm()
        s.add(5, {"x": 7, "y": 0})
        s.add(2, {"x": 7, "y": 0})
        s.add(6, {"x": 7, "y": 0})
        assert [rid for _v, rid in s.attr_list("x")] == [5, 2, 6]

    def test_reinsert_moves_to_back_of_ties(self):
        s = make_smbm()
        s.add(1, {"x": 7, "y": 0})
        s.add(2, {"x": 7, "y": 0})
        s.update(1, {"x": 7, "y": 0})  # delete+add re-enqueues id 1
        assert [rid for _v, rid in s.attr_list("x")] == [2, 1]

    def test_id_dimension_sorted(self):
        s = make_smbm()
        for rid in (6, 1, 3):
            s.add(rid, {"x": 0, "y": 0})
        assert s.ids() == [1, 3, 6]

    def test_id_vector(self):
        s = make_smbm()
        s.add(1, {"x": 0, "y": 0})
        s.add(6, {"x": 0, "y": 0})
        assert sorted(s.id_vector().indices()) == [1, 6]
        assert s.id_vector().width == 8

    def test_rank_of(self):
        s = make_smbm()
        s.add(0, {"x": 30, "y": 0})
        s.add(1, {"x": 10, "y": 0})
        assert s.rank_of(1, "x") == 0
        assert s.rank_of(0, "x") == 1

    def test_unknown_metric_rejected(self):
        s = make_smbm()
        with pytest.raises(ConfigurationError):
            s.attr_list("nope")
        s.add(0, {"x": 1, "y": 1})
        with pytest.raises(ConfigurationError):
            s.metric_of(0, "nope")

    def test_lookup_absent_id_rejected(self):
        s = make_smbm()
        with pytest.raises(ConfigurationError):
            s.metric_of(3, "x")


class SMBMMachine(RuleBasedStateMachine):
    """Random add/delete/update interleavings preserve all invariants and
    agree with a plain dict model."""

    def __init__(self):
        super().__init__()
        self.smbm = SMBM(16, ["a", "b", "c"])
        self.model: dict[int, dict[str, int]] = {}

    @rule(
        rid=st.integers(min_value=0, max_value=15),
        a=st.integers(min_value=0, max_value=200),
        b=st.integers(min_value=0, max_value=200),
        c=st.integers(min_value=0, max_value=200),
    )
    def add(self, rid, a, b, c):
        metrics = {"a": a, "b": b, "c": c}
        if rid in self.model:
            with pytest.raises(ConfigurationError):
                self.smbm.add(rid, metrics)
        else:
            self.smbm.add(rid, metrics)
            self.model[rid] = metrics

    @rule(rid=st.integers(min_value=0, max_value=15))
    def delete(self, rid):
        self.smbm.delete(rid)
        self.model.pop(rid, None)

    @rule(
        rid=st.integers(min_value=0, max_value=15),
        a=st.integers(min_value=0, max_value=200),
    )
    def update(self, rid, a):
        metrics = {"a": a, "b": a * 2, "c": 200 - a}
        self.smbm.update(rid, metrics)
        self.model[rid] = metrics

    @invariant()
    def matches_model(self):
        assert self.smbm.snapshot() == self.model

    @invariant()
    def structure_consistent(self):
        self.smbm.check_invariants()

    @invariant()
    def lists_are_sorted_views_of_model(self):
        for metric in ("a", "b", "c"):
            values = [v for v, _rid in self.smbm.attr_list(metric)]
            assert values == sorted(values)
            assert sorted(rid for _v, rid in self.smbm.attr_list(metric)) == sorted(
                self.model
            )


TestSMBMStateful = SMBMMachine.TestCase
TestSMBMStateful.settings = settings(max_examples=30, stateful_step_count=40)


class TestClockedSMBM:
    def test_write_latency_exactly_two_cycles(self):
        c = ClockedSMBM(8, ["x"])
        c.issue_add(3, {"x": 9})
        c.tick()  # cycle 0: search
        assert 3 not in c.read()
        c.tick()  # cycle 1: commit
        assert 3 in c.read()
        assert c.commit_log == [(1, "add", 3)]

    def test_one_write_retired_per_cycle(self):
        """Fully pipelined: issue every cycle, one commit per cycle after fill."""
        c = ClockedSMBM(8, ["x"])
        for i in range(6):
            c.issue_add(i, {"x": i})
            c.tick()
        # A write issued in cycle t occupies cycles t and t+1; after 6 full
        # cycles the writes issued in cycles 0..4 have committed.
        assert len(c.read()) == 5
        c.tick()
        assert len(c.read()) == 6
        commit_cycles = [cyc for cyc, _k, _r in c.commit_log]
        assert commit_cycles == list(range(1, 7))  # one commit per cycle

    def test_delete_latency(self):
        c = ClockedSMBM(8, ["x"])
        c.issue_add(1, {"x": 5})
        c.tick()
        c.tick()
        c.issue_delete(1)
        c.tick()
        assert 1 in c.read()
        c.tick()
        assert 1 not in c.read()

    def test_reads_concurrent_with_writes_never_torn(self):
        """A read in any cycle sees a whole pre- or post-write state."""
        c = ClockedSMBM(8, ["x", "y"])
        valid_states = [{}, {1: {"x": 10, "y": 20}}]
        c.issue_add(1, {"x": 10, "y": 20})
        for _ in range(4):
            snap = c.read().snapshot()
            assert snap in valid_states
            c.read().check_invariants()
            c.tick()
        assert c.read().snapshot() == valid_states[1]

    def test_write_latency_constant(self):
        assert WRITE_LATENCY_CYCLES == 2

"""ReplicatedSMBM beyond the happy path: contention sequences and
exception-safety of commit_cycle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.switch.replication import ReplicatedSMBM, WriteContention

METRICS = ("cpu", "mem")


def make_rep(pipelines=3, capacity=8, **kwargs):
    return ReplicatedSMBM(pipelines, capacity, METRICS, **kwargs)


def fill(rep, n_rows, rng):
    for rid in range(n_rows):
        rep.issue_update(0, rid, {"cpu": rng.randrange(100),
                                  "mem": rng.randrange(400)})
        rep.commit_cycle()


class TestContention:
    def test_contention_raises_with_context(self, rng):
        rep = make_rep()
        fill(rep, 2, rng)
        rep.issue_update(0, 1, {"cpu": 1, "mem": 1})
        rep.issue_update(2, 1, {"cpu": 2, "mem": 2})
        with pytest.raises(WriteContention) as exc:
            rep.commit_cycle()
        assert exc.value.resource == 1
        assert exc.value.component == "replicated_smbm"
        assert exc.value.pairs == ((1, 0, 2),)

    def test_two_writers_name_one_pair(self, rng):
        """A same-cycle write from two pipelines is one pair, lower
        pipeline first, whichever order the writes were issued in."""
        rep = make_rep()
        fill(rep, 3, rng)
        for first, second in ((0, 1), (2, 0), (2, 1)):
            rep.issue_update(first, 2, {"cpu": 1, "mem": 1})
            rep.issue_update(second, 2, {"cpu": 2, "mem": 2})
            with pytest.raises(WriteContention) as exc:
                rep.commit_cycle()
            assert exc.value.pairs == (
                (2, min(first, second), max(first, second)),
            )
        rep.check_synchronised()

    def test_three_writers_name_all_pairs(self, rng):
        """One refusal names every clash of the cycle, not the first."""
        rep = make_rep(pipelines=4)
        fill(rep, 4, rng)
        before = rep.replica(0).snapshot()
        for pipeline in (2, 0, 1):
            rep.issue_update(pipeline, 3, {"cpu": pipeline, "mem": pipeline})
        rep.issue_update(3, 0, {"cpu": 7, "mem": 7})  # uncontended, refused too
        with pytest.raises(WriteContention) as exc:
            rep.commit_cycle()
        assert exc.value.pairs == ((3, 0, 1), (3, 0, 2), (3, 1, 2))
        assert rep.replica(0).snapshot() == before
        rep.check_synchronised()

    def test_refusal_names_exactly_the_injected_pairs(self):
        """Seeded injector contention vs the refusal, pair for pair: no
        false negatives, and nothing raised on the benign cycles around."""
        rep = make_rep(pipelines=4, capacity=16, sanitize=True)
        for rid in range(8):  # benign populate: one writer per resource
            rep.issue_update(rid % 4, rid, {"cpu": rid, "mem": rid * 2})
            rep.commit_cycle()
        before = rep.replica(0).snapshot()

        inj = FaultInjector(seed=42)
        inj.contend_writes(rep, 3, {0: {"cpu": 1, "mem": 1},
                                    2: {"cpu": 2, "mem": 2}})
        inj.contend_writes(rep, 5, {1: {"cpu": 3, "mem": 3},
                                    3: {"cpu": 4, "mem": 4}})
        with pytest.raises(WriteContention) as exc:
            rep.commit_cycle()
        assert exc.value.pairs == ((3, 0, 2), (5, 1, 3))
        assert inj.injected("write_contention") == 2
        assert rep.replica(0).snapshot() == before

        for rid in (9, 10, 11):  # more benign traffic raises nothing
            rep.issue_update(0, rid, {"cpu": 0, "mem": 0})
            rep.commit_cycle()
        rep.check_synchronised()

    def test_refused_cycle_names_its_pair_and_applies_nothing(self):
        """A sanitized replica set refuses an injected clash: the refusal
        names the pair and no replica took either write."""
        rep = make_rep(pipelines=4, capacity=16, sanitize=True)
        for rid in range(8):
            rep.issue_update(rid % 4, rid, {"cpu": rid, "mem": rid * 2})
            rep.commit_cycle()
        before = [rep.replica(p).snapshot() for p in range(rep.pipelines)]

        inj = FaultInjector(seed=7)
        inj.contend_writes(rep, 2, {1: {"cpu": 9, "mem": 9},
                                    2: {"cpu": 8, "mem": 8}})
        with pytest.raises(WriteContention) as exc:
            rep.commit_cycle()
        assert exc.value.pairs == ((2, 1, 2),)
        assert [rep.replica(p).snapshot()
                for p in range(rep.pipelines)] == before
        rep.check_synchronised()

    def test_same_pipeline_double_write_is_not_contention(self, rng):
        rep = make_rep()
        fill(rep, 2, rng)
        rep.issue_update(1, 0, {"cpu": 5, "mem": 5})
        rep.issue_update(1, 0, {"cpu": 6, "mem": 6})
        rep.commit_cycle()
        assert dict(rep.replica(2).metrics_of(0)) == {"cpu": 6, "mem": 6}
        rep.check_synchronised()

    def test_distinct_resources_never_contend(self, rng):
        rep = make_rep()
        fill(rep, 4, rng)
        for pipeline in range(3):
            rep.issue_update(pipeline, pipeline + 1,
                             {"cpu": pipeline, "mem": pipeline})
        rep.commit_cycle()
        rep.check_synchronised()

    def test_usable_after_contention(self, rng):
        """Regression: the failed cycle must not leave stale staged writes
        that replay into a later commit."""
        rep = make_rep()
        fill(rep, 2, rng)
        rep.issue_update(0, 1, {"cpu": 1, "mem": 1})
        rep.issue_update(1, 1, {"cpu": 2, "mem": 2})
        with pytest.raises(WriteContention):
            rep.commit_cycle()
        before = dict(rep.replica(0).metrics_of(1))
        rep.commit_cycle()  # nothing staged: a clean no-op cycle
        assert dict(rep.replica(0).metrics_of(1)) == before
        rep.issue_update(1, 1, {"cpu": 9, "mem": 9})
        rep.commit_cycle()
        assert dict(rep.replica(0).metrics_of(1)) == {"cpu": 9, "mem": 9}
        rep.check_synchronised()

    @given(
        cycles=st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=2),  # pipeline
                    st.integers(min_value=0, max_value=3),  # resource
                    st.integers(min_value=0, max_value=99),  # value
                ),
                min_size=1, max_size=4,
            ),
            min_size=1, max_size=6,
        )
    )
    @settings(max_examples=40)
    def test_multi_cycle_sequences_stay_synchronised(self, cycles):
        """Whatever mix of clean and contended cycles runs, a refusal names
        exactly the cycle's clashing pairs, the replicas are identical
        afterwards and contended cycles leave no residue."""
        rep = make_rep()
        for writes in cycles:
            pairs = {(rid, a, b)
                     for a, rid, _ in writes for b, rid_b, _ in writes
                     if rid_b == rid and a < b}
            for pipeline, rid, value in writes:
                rep.issue_update(pipeline, rid,
                                 {"cpu": value, "mem": value + 1})
            if pairs:
                with pytest.raises(WriteContention) as exc:
                    rep.commit_cycle()
                assert exc.value.pairs == tuple(sorted(pairs))
            else:
                rep.commit_cycle()
            rep.check_synchronised()


class TestMidApplyFailure:
    def test_mid_apply_exception_still_clears_staged_writes(self, rng):
        """Even if a replica write blows up mid-apply, the staged set is
        cleared — the guarantee is try/finally, not happy-path."""
        rep = make_rep()
        fill(rep, 2, rng)
        rep.issue_update(0, 1, {"cpu": 1})  # missing metric: apply fails
        with pytest.raises(ConfigurationError):
            rep.commit_cycle()
        # The poisoned write is gone; the next cycle is clean.
        rep.commit_cycle()
        rep.issue_update(0, 0, {"cpu": 3, "mem": 4})
        rep.commit_cycle()
        assert dict(rep.replica(2).metrics_of(0)) == {"cpu": 3, "mem": 4}
        # The refused write touched no replica: they are still in sync.
        rep.check_synchronised()

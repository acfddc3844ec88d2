"""Runtime sanitizer: commit-time invariant checks across the model.

Each test violates exactly one invariant the sanitizer guards — SMBM
structural consistency, memo-version coherence, atomic replicated commit,
fast-path/oracle agreement — and asserts the next commit (or check)
reports it as an :class:`~repro.errors.IntegrityError` with context.
"""

from __future__ import annotations

import pytest

from repro.core.policy import Policy, TableRef, min_of
from repro.core.smbm import SMBM
from repro.core.ufpu_reference import GoldenOracle
from repro.errors import ConfigurationError, IntegrityError
from repro.faults.injector import FaultInjector
from repro.switch.filter_module import FilterModule
from repro.switch.replication import ReplicatedSMBM


def _policy() -> Policy:
    return Policy(min_of(TableRef(), "q"), name="san")


class TestSmbmSanitize:
    def test_clean_writes_pass(self):
        smbm = SMBM(8, ("q",), sanitize=True)
        smbm.add(1, {"q": 5})
        smbm.add(2, {"q": 3})
        smbm.delete(1)
        smbm.update(2, {"q": 9})
        assert smbm.sanitize
        assert len(smbm) == 1

    def test_mangled_list_caught_on_next_commit(self):
        smbm = SMBM(8, ("q",), sanitize=True)
        smbm.add(1, {"q": 5})
        # Corrupt the reverse map out from under the forward map: the
        # sorted-list entry no longer matches the stored row.
        value, seq, rid = smbm._metric_lists["q"][0]
        smbm._metric_lists["q"][0] = (value + 1, seq, rid)
        with pytest.raises(IntegrityError) as exc_info:
            smbm.add(2, {"q": 7})
        assert exc_info.value.component == "smbm"
        assert "invariant violated" in str(exc_info.value)

    def test_seu_does_not_false_positive(self):
        """corrupt_stored_bit flips value *consistently* in both maps — an
        SEU corrupts data, not structure, so the sanitizer stays quiet (the
        ECC layer, not the sanitizer, owns data-integrity detection)."""
        smbm = SMBM(8, ("q",), sanitize=True)
        smbm.add(1, {"q": 5})
        smbm.corrupt_stored_bit(1, "q", 3)
        smbm.add(2, {"q": 7})  # commit-time check passes

    def test_unsanitized_table_skips_the_check(self):
        smbm = SMBM(8, ("q",))
        smbm.add(1, {"q": 5})
        value, seq, rid = smbm._metric_lists["q"][0]
        smbm._metric_lists["q"][0] = (value + 1, seq, rid)
        smbm.add(2, {"q": 7})  # no sanitizer, nothing raises
        assert not smbm.sanitize


class TestMemoCoherence:
    def test_memo_invalidated_by_every_commit(self, registry):
        module = FilterModule(8, ("q",), _policy(), sanitize=True)
        module.smbm.add(1, {"q": 5})
        module.evaluate()
        module.evaluate()
        assert registry.value_of("filter_memo_hits_total") == 1
        module.smbm.add(2, {"q": 3})  # coherence listener passes
        assert module.evaluate().first_set() == 2

    def test_incoherent_memo_caught_at_commit(self):
        module = FilterModule(8, ("q",), _policy(), sanitize=True)
        module.smbm.add(1, {"q": 5})
        module.evaluate()
        # Simulate a version-bookkeeping bug: the memo claims to already
        # hold the result of the *next* table version.
        module._memo_version = module.smbm.version + 1
        with pytest.raises(IntegrityError, match="stale results"):
            module.smbm.add(2, {"q": 3})


class TestOracleCheck:
    def test_agreement_passes_and_is_shared_with_self_test(self):
        module = FilterModule(8, ("q",), _policy(), sanitize=True)
        module.smbm.add(3, {"q": 9})
        module.smbm.add(5, {"q": 1})
        out = module.sanitize_check()
        assert out.first_set() == 5
        assert module.self_test() == []
        # One shared oracle compilation behind both checks.
        assert module._oracle.compiled.naive

    def test_observable_stuck_fault_caught(self):
        module = FilterModule(8, ("q",), _policy())
        for rid in range(6):
            module.smbm.add(rid, {"q": 10 - rid})
        inj = FaultInjector(seed=3)
        event = inj.stick_cell(module)
        assert event is not None, "injector found no observable stuck fault"
        with pytest.raises(IntegrityError, match="disagrees with golden"):
            module.sanitize_check()

    def test_stateful_policy_rejected(self):
        from repro.core.policy import random_pick

        module = FilterModule(8, ("q",),
                              Policy(random_pick(TableRef()), name="rng"))
        with pytest.raises(ConfigurationError):
            module.sanitize_check()

    def test_golden_oracle_standalone(self):
        oracle = GoldenOracle(_policy())
        smbm = SMBM(8, ("q",))
        smbm.add(2, {"q": 4})
        assert oracle.expected(smbm).first_set() == 2
        assert oracle.compiled is oracle.compiled  # compiled once, cached


class TestReplicatedSanitize:
    def test_commit_checks_replica_sync(self):
        rep = ReplicatedSMBM(3, 8, ("q",), sanitize=True)
        rep.issue_update(0, 1, {"q": 5})
        rep.commit_cycle()
        for p in range(3):
            assert rep.replica(p).metrics_of(1) == {"q": 5}

    def test_per_replica_tables_are_sanitized(self):
        rep = ReplicatedSMBM(2, 8, ("q",), sanitize=True)
        assert all(rep.replica(p).sanitize for p in range(2))

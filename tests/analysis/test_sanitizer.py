"""Runtime sanitizer: commit-time invariant checks across the model.

Each test violates exactly one invariant the sanitizer guards — SMBM
structural consistency, memo-version coherence, atomic replicated commit,
fast-path/oracle agreement — and asserts the next commit (or check)
reports it as an :class:`~repro.errors.IntegrityError` with context.
"""

from __future__ import annotations

import pytest

from repro.core.bfpu import BFPU
from repro.core.kufpu import KUFPU
from repro.core.operators import BinaryOp
from repro.core.policy import (
    Policy,
    PolicyInterpreter,
    TableRef,
    difference,
    min_of,
)
from repro.core.smbm import SMBM
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
        smbm.metric_index("q").keys[0][0] += 1 << 64  # value + 1, same seq
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
        smbm.metric_index("q").keys[0][0] += 1 << 64  # value + 1, same seq
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

    def test_observable_stuck_fault_caught(self):
        module = FilterModule(8, ("q",), _policy())
        for rid in range(6):
            module.smbm.add(rid, {"q": 10 - rid})
        inj = FaultInjector(seed=3)
        event = inj.stick_cell(module)
        assert event is not None, "injector found no observable stuck fault"
        with pytest.raises(IntegrityError,
                           match="disagrees with the naive reference"):
            module.sanitize_check()

    def test_stateful_policy_rejected(self):
        from repro.core.policy import random_pick

        module = FilterModule(8, ("q",),
                              Policy(random_pick(TableRef()), name="rng"))
        with pytest.raises(ConfigurationError):
            module.sanitize_check()

    def test_interpreter_standalone(self):
        reference = PolicyInterpreter(_policy())
        smbm = SMBM(8, ("q",))
        smbm.add(2, {"q": 4})
        smbm.add(5, {"q": 1})
        assert reference.evaluate(smbm).first_set() == 5
        assert reference.evaluate(smbm, mask=0b100).first_set() == 2


def _swapped_difference(monkeypatch) -> None:
    """BFPU mutant: ``b - a`` where the opcode says ``a - b``."""
    evaluate = BFPU.evaluate

    def swapped(self, a, b):
        if self.config.opcode is BinaryOp.DIFFERENCE:
            a, b = b, a
        return evaluate(self, a, b)

    monkeypatch.setattr(BFPU, "evaluate", swapped)


def _unstripped_chain(monkeypatch) -> None:
    """K-UFPU mutant: Equation 1 without ``I_i = I_{i-1} - O_{i-1}`` —
    every unit sees the whole input, so K units pick the same entry."""

    def unstripped(self, inp, smbm):
        out = 0
        for unit in self._units:
            out |= unit.evaluate(inp, smbm)
        return out

    monkeypatch.setattr(KUFPU, "evaluate", unstripped)


class TestReferenceIndependence:
    """The reference is a different program from the plan it judges: a
    fault in anything the plan is built from cannot hide in both."""

    def _module(self) -> FilterModule:
        table = TableRef()
        module = FilterModule(
            8, ("q",),
            Policy(difference(table, min_of(table, "q", k=2)), name="rest"))
        for rid in range(6):
            module.smbm.add(rid, {"q": 10 - rid})
        return module

    @pytest.mark.parametrize("mutate",
                             [_swapped_difference, _unstripped_chain])
    def test_mutant_in_a_pipeline_component_is_caught(self, monkeypatch,
                                                      mutate):
        healthy = self._module().sanitize_check().value
        assert healthy == 0b001111  # all but the two smallest: ids 5 and 4
        mutate(monkeypatch)
        module = self._module()
        # The mutant is live in the Cells (the kernel runs none of them).
        assert module.compiled.evaluate(module.smbm).value != healthy
        with pytest.raises(IntegrityError,
                           match="disagrees with the naive reference"):
            module.sanitize_check()

    def test_corrupt_index_is_not_pinned_on_healthy_cells(self):
        """A mask-engine fault is in no Cell: self-test reports it instead
        of routing around hardware a fault-free clone vouches for."""
        module = self._module()
        assert module.self_test() == []
        index = module.smbm.metric_index("q")
        index.local[0][1] ^= 1 << 0  # rank 0 now names id 0 beside id 5
        with pytest.raises(IntegrityError,
                           match="no Cell could be localized"):
            module.self_test()
        assert module.cells.routed_around == frozenset()


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

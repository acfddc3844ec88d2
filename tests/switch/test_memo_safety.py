"""Exception-safety of FilterModule memoization: a run that raises
mid-evaluation must never leave a half-populated memo entry."""

import pytest

from repro.core.pipeline import PipelineParams
from repro.core.policy import Policy, TableRef, intersection, predicate
from repro.errors import IntegrityError
from repro.switch.filter_module import FilterModule

METRICS = ("cpu", "mem")
PARAMS = PipelineParams(n=6, k=3, f=2, chain_length=2)


def make_module(n_rows=6):
    policy = Policy(
        intersection(
            predicate(TableRef(), "cpu", "<", 70),
            predicate(TableRef(), "mem", ">", 100),
        ),
        name="memo-safety",
    )
    module = FilterModule(n_rows, METRICS, policy, PARAMS)
    for rid in range(n_rows):
        module.update_resource(rid, {"cpu": 10 * rid, "mem": 60 * rid})
    return module


def raise_once(module, monkeypatch) -> list:
    """The module's kernel raises on its next run, then serves again;
    returns the list its raising run is recorded in."""
    real = module.codegen.evaluate
    raised = []

    def evaluate(smbm, mask=None):
        if not raised:
            raised.append(smbm.version)
            raise IntegrityError("kernel raised mid-run",
                                 component="filter_module")
        return real(smbm, mask)

    monkeypatch.setattr(module.codegen, "evaluate", evaluate)
    return raised


def test_a_raise_mid_eval_leaves_no_stale_memo(registry, monkeypatch):
    """The old memo entry is dropped before the kernel runs: after an
    error escapes, the next evaluation recomputes rather than serving an
    entry whose version no longer matches reality."""
    module = make_module()
    correct = module.evaluate()
    assert registry.value_of("filter_memo_hits_total") == 0
    assert registry.value_of("filter_memo_misses_total") == 1

    raised = raise_once(module, monkeypatch)
    module.update_resource(0, {"cpu": 1, "mem": 500})  # invalidate memo
    with pytest.raises(IntegrityError):
        module.evaluate()
    assert raised == [module.smbm.version]

    # The raising run installed nothing: the next evaluation recomputes
    # against the *current* table.
    recovered = module.evaluate()
    # Completed misses only: initial + recovery (the raising run raised
    # before its miss was accounted).
    assert registry.value_of("filter_memo_misses_total") == 2
    assert registry.value_of("filter_memo_hits_total") == 0
    expected = make_module()
    expected.update_resource(0, {"cpu": 1, "mem": 500})
    assert recovered == expected.evaluate()
    assert recovered != correct  # row 0 changed eligibility


def test_memo_hit_path_never_runs_the_kernel(registry, monkeypatch):
    """An unchanged table is answered from the memo: a kernel that would
    raise is not reached."""
    module = make_module()
    first = module.evaluate()
    assert module.evaluate() == first
    assert registry.value_of("filter_memo_hits_total") == 1

    raised = raise_once(module, monkeypatch)
    assert module.evaluate() == first
    assert raised == []
    assert registry.value_of("filter_memo_hits_total") == 2


def test_memo_not_installed_when_version_moves_mid_run(registry):
    """A table write that lands *during* the run must prevent
    installation of the now-stale output."""
    module = make_module()
    module.evaluate()

    # Poke the version between the miss check and the install by wrapping
    # the miss routine.
    real_miss = module._miss
    poked = {"done": False}

    def miss_and_write(mask):
        out = real_miss(mask)
        if not poked["done"]:
            poked["done"] = True
            module.smbm.update(0, {"cpu": 99, "mem": 99})
        return out

    module._miss = miss_and_write
    module.update_resource(1, {"cpu": 2, "mem": 2})  # force a miss
    module.evaluate()  # version moved mid-run: no memo installed
    module._miss = real_miss

    before_hits = registry.value_of("filter_memo_hits_total")
    module.evaluate()
    # A miss: nothing stale served.
    assert registry.value_of("filter_memo_hits_total") == before_hits
    assert registry.value_of("filter_memo_misses_total") >= 3


def test_the_run_after_a_raise_installs_a_consistent_memo(registry,
                                                          monkeypatch):
    """After a raising run, the memo entry the next run installs is that
    run's output at the current version, and a hit serves exactly it."""
    module = make_module()
    module.evaluate()
    raise_once(module, monkeypatch)
    module.update_resource(0, {"cpu": 3, "mem": 300})
    with pytest.raises(IntegrityError):
        module.evaluate()
    served = module.evaluate()
    expected = make_module()
    expected.update_resource(0, {"cpu": 3, "mem": 300})
    assert served == expected.evaluate()
    hits = registry.value_of("filter_memo_hits_total")
    assert module.evaluate() == served
    assert registry.value_of("filter_memo_hits_total") == hits + 1

"""FilterModule options compose, and each piece of serving state is
rebuilt on exactly one clock.

No combination of the mode flags is refused: every one of them serves,
through every door, what a plain module serves
(:func:`tests.switch.test_row_path_property.serves_like_plain` — healthy
and with a Cell dead).  The clock tests pin what a fail-around recompile
must leave alone and what a hot-swap must replace, and which rows reach
the Cells: none of a stateless plan's, unless an injected fault is still
on the placement.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.compiler import CompiledPolicy
from repro.core.operators import RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import Policy, TableRef, min_of, predicate, random_pick
from repro.errors import CellFault
from repro.rmt.packet import Packet
from repro.switch.filter_module import (
    META_FILTER_INPUT,
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    FilterModule,
)

from tests.switch.test_row_path_property import serves_like_plain

PARAMS = PipelineParams(n=8)
METRICS = ("q", "load")

#: Every mode flag, mapped to the constructor kwargs that turn it on.
#: "tenant" is a mode, not a boolean: it is enabled by the slicing
#: parameters (here: the first two of four Cell columns).
FLAG_KWARGS = {
    "self_healing": {"self_healing": True},
    "sanitize": {"sanitize": True},
    "tenant": {
        "tenant": "alice",
        "reserved_cells": tuple(
            (stage, col)
            for stage in range(1, PARAMS.k + 1) for col in (2, 3)
        ),
        "input_lines": (0, 1, 2, 3),
    },
}


@pytest.mark.parametrize(
    "a,b",
    list(itertools.combinations(sorted(FLAG_KWARGS), 2)),
    ids=lambda v: v,
)
def test_pairwise_flag_matrix(a: str, b: str):
    serves_like_plain(**FLAG_KWARGS[a], **FLAG_KWARGS[b])


@pytest.mark.parametrize("flag", sorted(FLAG_KWARGS), ids=lambda v: v)
def test_each_flag_alone_constructs(flag: str):
    serves_like_plain(**FLAG_KWARGS[flag])


def test_every_flag_at_once():
    serves_like_plain(**{k: v for kwargs in FLAG_KWARGS.values()
                         for k, v in kwargs.items()})


def test_tenant_mode_composes_with_self_healing():
    """Per-tenant fault domains: a sliced module may self-heal inside its
    own strip."""
    # Two columns: fail-around needs a surviving path through the strip
    # (a one-column strip whose only stage-1 Cell dies is severed — the
    # compiler rightly refuses, which is its own guarantee).
    module = FilterModule(
        8, METRICS,
        Policy(predicate(TableRef(), "q", RelOp.LT, 5), name="p"),
        PARAMS,
        self_healing=True,
        **FLAG_KWARGS["tenant"],
    )
    assert module.tenant == "alice"
    assert module.cells.self_healing
    module.update_resource(0, {"q": 3, "load": 1})
    module.update_resource(1, {"q": 7, "load": 2})
    out = module.evaluate()
    # A fault in the tenant's own column heals by recompiling within the
    # slice: the reserved Cells stay excluded afterwards.  (A table write
    # invalidates the memo so the next evaluation really routes through
    # the pipeline and trips the dead Cell.)
    module.cells.kill(1, 0)
    module.update_resource(2, {"q": 9, "load": 3})
    healed = module.evaluate()
    assert healed.value == out.value
    assert (1, 0) in module.cells.routed_around
    assert module.cells.reserved_cells <= module.compiled.dead_cells


# -- the three clocks ------------------------------------------------------------------


def _lowerings(module: FilterModule) -> tuple:
    """What the policy clock owns: the kernel and the naive reference."""
    return module.codegen, module._reference


def _min_q() -> Policy:
    return Policy(min_of(predicate(TableRef(), "q", RelOp.LT, 50), "load"),
                  name="min-load")


def _filled(**options) -> FilterModule:
    module = FilterModule(8, METRICS, _min_q(), PARAMS, **options)
    for rid in range(4):
        module.update_resource(rid, {"q": 10 * rid, "load": 9 - rid})
    return module


def _masked(module: FilterModule, mask: int) -> int:
    """One masked packet, a batch of one."""
    packet = Packet(metadata={META_FILTER_REQUEST: 1, META_FILTER_INPUT: mask})
    module.evaluate_batch([packet])
    return packet.metadata[META_FILTER_OUTPUT]


@pytest.fixture
def plan_runs(monkeypatch) -> list[str]:
    """Every run of a compiled Cell pipeline, whichever plan is live."""
    calls: list[str] = []
    for name in ("evaluate", "evaluate_restricted"):
        def spy(self, *args, _real=getattr(CompiledPolicy, name), _name=name):
            calls.append(_name)
            return _real(self, *args)
        monkeypatch.setattr(CompiledPolicy, name, spy)
    return calls


def test_fail_around_keeps_what_the_policy_built_and_a_swap_replaces_it():
    module = _filled(self_healing=True, sanitize=True)
    built = _lowerings(module)
    assert None not in built
    plan = module.compiled
    module.cells.kill(*plan.pipeline.active_cells()[0])
    assert module.select() == 3  # healed mid-traffic
    assert module.compiled is not plan and module.cells.routed_around
    assert all(now is was for now, was in zip(_lowerings(module), built))
    assert module.hot_swap(_min_q()) == 1
    assert all(now is not was for now, was in zip(_lowerings(module), built))
    assert module.select() == 3


# -- one lowering, and where the Cells still serve ---------------------------------


def test_a_stateless_module_serves_misses_and_masked_rows_from_its_kernel(
        plan_runs, registry):
    module = _filled()
    for rid in range(4):
        module.update_resource(rid, {"q": 5 * rid, "load": 9 - rid})
        module.select()  # a memo miss per write
    outs = [_masked(module, mask) for mask in (0b0110, 0b1000, 0)]
    assert plan_runs == []
    assert registry.value_of("filter_memo_misses_total") == 4
    assert outs == [0b0100, 0b1000, 0]


@pytest.mark.parametrize("self_healing", (False, True),
                         ids=("raises", "heals"))
def test_an_injected_dead_cell_is_met_by_the_next_miss(plan_runs,
                                                       self_healing: bool):
    module = _filled(self_healing=self_healing)
    assert module.select() == 3
    dead = module.compiled.pipeline.active_cells()[0]
    module.cells.kill(*dead)
    module.update_resource(0, {"q": 0, "load": 9})  # the memo must miss
    if self_healing:
        assert module.select() == 3 and plan_runs == ["evaluate"]
    else:
        with pytest.raises(CellFault):
            module.select()
        with pytest.raises(CellFault):
            _masked(module, 0b0110)
        assert set(plan_runs) == {"evaluate", "evaluate_restricted"}
        # The self-test meets it too, and routes around it.
        assert module.self_test() == [
            {"stage": dead[0], "index": dead[1], "kind": "cell_dead"}]
    assert module.cells.routed_around == {dead}
    plan_runs.clear()  # healed: rows are back on the kernel
    module.update_resource(0, {"q": 0, "load": 0})
    assert (module.select(), _masked(module, 0b0110)) == (0, 0b0100)
    assert plan_runs == []


def test_a_stuck_cell_holds_rows_on_the_cells_until_it_is_gone(plan_runs):
    module = _filled()
    pos = module.compiled.pipeline.active_cells()[0]
    module.cells.stick(*pos, 1, 0)
    _masked(module, 0b0110)
    assert plan_runs == ["evaluate_restricted"]
    module.cells.unstick(*pos, 1)
    plan_runs.clear()
    assert _masked(module, 0b0110) == 0b0100 and plan_runs == []


def test_a_swap_to_a_stateful_policy_builds_a_kernel_that_steps_its_units(
        plan_runs):
    module = _filled()
    kernel = module.codegen
    module.hot_swap(Policy(random_pick(TableRef()), name="stateful"))
    stateful = module.codegen
    assert stateful is not kernel and stateful.units is not None
    module.select()
    assert plan_runs == []  # a stateful plan's rows step the kernel's units
    assert module.hot_swap(_min_q()) == 2
    assert module.codegen not in (kernel, stateful)
    assert module.select() == 3 and plan_runs == []

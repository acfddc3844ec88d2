"""FilterModule options compose, and each piece of serving state is
rebuilt on exactly one clock.

No combination of the mode flags is refused: every one of them serves,
through every door, what a plain module serves
(:func:`tests.switch.test_row_path_property.serves_like_plain` — healthy
and with a Cell dead).  The clock tests pin what a fail-around recompile
must leave alone and what a hot-swap must replace.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.operators import RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import Policy, TableRef, min_of, predicate, random_pick
from repro.errors import ConfigurationError
from repro.switch.filter_module import FilterModule

from tests.switch.test_row_path_property import serves_like_plain

PARAMS = PipelineParams(n=8)
METRICS = ("q", "load")

#: Every mode flag, mapped to the constructor kwargs that turn it on.
#: "tenant" is a mode, not a boolean: it is enabled by the slicing
#: parameters (here: the first two of four Cell columns).
FLAG_KWARGS = {
    "codegen": {"codegen": True},
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
    assert module.self_healing
    module.update_resource(0, {"q": 3, "load": 1})
    module.update_resource(1, {"q": 7, "load": 2})
    out = module.evaluate()
    # A fault in the tenant's own column heals by recompiling within the
    # slice: the reserved Cells stay excluded afterwards.  (A table write
    # invalidates the memo so the next evaluation really routes through
    # the pipeline and trips the dead Cell.)
    module.inject_cell_kill(1, 0)
    module.update_resource(2, {"q": 9, "load": 3})
    healed = module.evaluate()
    assert healed.value == out.value
    assert (1, 0) in module.routed_around
    assert module.reserved_cells <= module.compiled.dead_cells


# -- the three clocks ------------------------------------------------------------------


def _lowerings(module: FilterModule) -> tuple:
    """What the policy clock owns: kernel, batch engine, naive reference."""
    return module.codegen, module._engine, module._reference


def _min_q() -> Policy:
    return Policy(min_of(predicate(TableRef(), "q", RelOp.LT, 50), "load"),
                  name="min-load")


@pytest.mark.parametrize("codegen", (False, True), ids=("batch", "kernel"))
def test_fail_around_keeps_what_the_policy_built_and_a_swap_replaces_it(
        codegen: bool):
    module = FilterModule(8, METRICS, _min_q(), PARAMS, self_healing=True,
                          sanitize=True, codegen=codegen)
    for rid in range(4):
        module.update_resource(rid, {"q": 10 * rid, "load": 9 - rid})
    built = _lowerings(module)
    assert (built[0] is not None) == codegen and built[1] is not None
    plan = module.compiled
    module.inject_cell_kill(*plan.pipeline.active_cells()[0])
    assert module.select() == 3  # healed mid-traffic
    assert module.compiled is not plan and module.routed_around
    assert all(now is was for now, was in zip(_lowerings(module), built))
    assert module.hot_swap(_min_q()) == 1
    for now, was in zip(_lowerings(module), built):
        assert now is not was or was is None
    assert module.select() == 3


def test_a_swap_the_kernel_refuses_leaves_the_live_plan_untouched():
    module = FilterModule(8, METRICS, _min_q(), PARAMS, codegen=True)
    for rid in range(4):
        module.update_resource(rid, {"q": 10 * rid, "load": 9 - rid})
    before = (module.plan_epoch, module.compiled, module.policy,
              _lowerings(module), module.evaluate())
    with pytest.raises(ConfigurationError, match="TH012"):
        module.hot_swap(Policy(random_pick(TableRef()), name="stateful"))
    assert (module.plan_epoch, module.compiled, module.policy,
            _lowerings(module), module.evaluate()) == before
    module.update_resource(3, {"q": 99, "load": 0})  # and it still serves
    assert module.select() == 2

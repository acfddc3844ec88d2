"""FilterModule fail-around: dead-Cell healing, BIST localization, and
capacity-exhaustion behaviour."""

import pytest

from repro import obs
from repro.core.compiler import PolicyCompiler
from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Policy,
    TableRef,
    intersection,
    predicate,
    random_pick,
)
from repro.errors import CellFault, CompilationError, ConfigurationError

from repro.switch.filter_module import FilterModule

METRICS = ("cpu", "mem")
#: Three Cells per stage: room to route around more than one fault.
ROOMY = PipelineParams(n=6, k=3, f=2, chain_length=2)
#: Two Cells per stage: a second stage-1 fault exhausts the pipeline.
TIGHT = PipelineParams(n=4, k=3, f=2, chain_length=2)


def make_policy():
    return Policy(
        intersection(
            predicate(TableRef(), "cpu", "<", 70),
            predicate(TableRef(), "mem", ">", 100),
        ),
        name="failaround",
    )


def make_module(params=ROOMY, *, self_healing=True, n_rows=6, rng=None):
    module = FilterModule(
        max(n_rows, 2), METRICS, make_policy(), params,
        self_healing=self_healing,
    )
    for rid in range(n_rows):
        if rng is None:
            row = {"cpu": 10 * rid, "mem": 60 * rid}
        else:
            row = {"cpu": rng.randrange(100), "mem": rng.randrange(400)}
        module.update_resource(rid, row)
    return module


def first_active(module):
    return module.compiled.pipeline.active_cells()[0]


def test_kill_hidden_by_memo_until_miss():
    """A hardware fault is not a table write: the version-keyed memo
    legitimately serves the pre-fault answer until the next miss."""
    module = make_module()
    baseline = module.evaluate()
    stage, index = first_active(module)
    module.cells.kill(stage, index)
    assert module.evaluate() == baseline  # memo hit, corpse never routed
    assert not module.cells.routed_around
    module.update_resource(0, {"cpu": 1, "mem": 1})  # miss forces the fault
    module.evaluate()
    assert module.cells.routed_around == {(stage, index)}


def test_heal_matches_fault_free_twin(rng):
    module = make_module(rng=rng)
    twin = make_module(self_healing=False)
    for rid in range(6):
        twin.update_resource(rid, dict(module.smbm.metrics_of(rid)))
    stage, index = first_active(module)
    module.cells.kill(stage, index)
    module.update_resource(0, {"cpu": 5, "mem": 500})
    twin.update_resource(0, {"cpu": 5, "mem": 500})
    assert module.evaluate() == twin.evaluate()
    assert module.cells.degraded
    assert module.cells.routed_around == {(stage, index)}


def test_without_self_healing_fault_propagates():
    module = make_module(self_healing=False)
    stage, index = first_active(module)
    module.cells.kill(stage, index)
    module.update_resource(0, {"cpu": 1, "mem": 1})
    with pytest.raises(CellFault) as exc:
        module.evaluate()
    assert (exc.value.stage, exc.value.index) == (stage, index)


def test_capacity_exhaustion_raises_and_rolls_back():
    """When no surviving placement exists, CompilationError surfaces and
    the failed position is NOT left in routed_around."""
    module = make_module(TIGHT)
    module.cells.kill(1, 0)
    module.update_resource(0, {"cpu": 1, "mem": 1})
    module.evaluate()
    assert module.cells.routed_around == {(1, 0)}
    # Stage 1 is the gateway for every input wire; killing its last Cell
    # leaves nothing to compile onto.
    module.cells.kill(1, 1)
    module.update_resource(0, {"cpu": 2, "mem": 2})
    with pytest.raises(CompilationError):
        module.evaluate()
    assert module.cells.routed_around == {(1, 0)}


@pytest.mark.parametrize("inject", [
    lambda cells: cells.kill(99, 0),
    lambda cells: cells.stick(1, 0, 3, 1),
    lambda cells: cells.stick(1, 0, 1, 7),
], ids=("no-such-cell", "no-such-side", "no-such-level"))
def test_a_refused_injection_leaves_nothing_behind(inject):
    """An injection the pipeline refuses records no fault: the next
    recompile (here a hot-swap) re-arms only real ones."""
    module = make_module()
    want = module.evaluate()
    with pytest.raises(ConfigurationError):
        inject(module.cells)
    assert not module.cells.serves
    assert module.hot_swap(make_policy()) == 1
    module.update_resource(0, {"cpu": 0, "mem": 0})  # the memo must miss
    assert module.evaluate() == want


def test_stuck_fault_is_silent_until_self_test():
    module = make_module()
    twin = make_module(self_healing=False)
    stage, index = first_active(module)
    module.cells.stick(stage, index, 1, 0)
    healed = module.self_test()
    if healed:  # wedge was observable on this policy/table
        assert {(h["stage"], h["index"]) for h in healed} == {(stage, index)}
        assert module.cells.routed_around == {(stage, index)}
    assert module.evaluate() == twin.evaluate()


def test_self_test_healthy_module_reports_nothing():
    module = make_module()
    assert module.self_test() == []
    assert not module.cells.routed_around


def test_self_test_requires_stateless_policy():
    module = FilterModule(
        4, METRICS, Policy(random_pick(TableRef()), name="stateful"),
        ROOMY, self_healing=True,
    )
    with pytest.raises(ConfigurationError):
        module.self_test()


def test_physical_faults_survive_recompile():
    """A stuck fault on a Cell the new plan still uses must be re-applied
    after a fail-around recompilation (the hardware did not heal)."""
    module = make_module()
    dead_pos = first_active(module)
    # A physically distinct Cell the current plan happens not to use; the
    # fail-around recompile will route onto it, so the wedge must follow.
    stuck_pos = (dead_pos[0], (dead_pos[1] + 1) % 3)
    module.cells.stick(*stuck_pos, 2, 1)
    module.cells.kill(*dead_pos)
    module.update_resource(0, {"cpu": 1, "mem": 1})
    module.evaluate()  # heals the dead Cell via recompile
    assert module.cells.routed_around == {dead_pos}
    cell = module.compiled.pipeline.cell_at(*stuck_pos)
    assert cell.stuck_faults == {2: 1}


def test_compiler_rejects_out_of_range_dead_cells():
    compiler = PolicyCompiler(ROOMY)
    with pytest.raises(ConfigurationError):
        compiler.compile(make_policy(), dead_cells=[(0, 0)])
    with pytest.raises(ConfigurationError):
        compiler.compile(make_policy(), dead_cells=[(1, 99)])


def test_compiled_with_dead_cells_never_routes_them():
    compiled = PolicyCompiler(ROOMY).compile(
        make_policy(), dead_cells=[(1, 0)]
    )
    assert compiled.dead_cells == frozenset({(1, 0)})
    assert (1, 0) not in compiled.pipeline.active_cells()
    assert compiled.pipeline.cell_at(1, 0).is_dead


def test_degraded_gauge_tracks_routed_around():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        module = make_module()
        stage, index = first_active(module)
        module.cells.kill(stage, index)
        module.update_resource(0, {"cpu": 1, "mem": 1})
        module.evaluate()
        snap = obs.snapshot(registry)
    assert snap["gauges"]['degraded_mode{policy="failaround"}'] == 1
    assert snap["counters"]['faults_detected_total{kind="cell_dead"}'] == 1
    hist = snap["histograms"]['repair_latency_ns{component="filter_module"}']
    assert hist["count"] == 1 and hist["sum"] > 0


def test_degraded_gauge_follows_the_live_policy():
    """After a hot-swap, a healed Cell is filed under the policy the module
    runs; the swapped-out policy's series reads 0."""
    def named(name):
        return Policy(make_policy().root, name=name)

    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        module = FilterModule(6, METRICS, named("first"), ROOMY,
                              self_healing=True)
        module.update_resource(0, {"cpu": 1, "mem": 200})
        module.hot_swap(named("second"))
        module.cells.kill(*first_active(module))
        module.update_resource(1, {"cpu": 2, "mem": 300})
        module.evaluate()  # meets the dead Cell and routes around it
        gauges = obs.snapshot(registry)["gauges"]
    assert module.cells.routed_around
    assert gauges['degraded_mode{policy="second"}'] == 1
    assert not [v for k, v in gauges.items()
                if k.startswith("degraded_mode") and '"first"' in k and v]

"""One owner for a policy's unit state: the stream a stateful module serves
is :class:`~repro.core.policy.PolicyInterpreter`'s for the same policy and
``lfsr_seed``, whichever lowering served each row and wherever the policy
sits.

* A fail-around recompile moves the placement, not the units: a Cell kill
  and its heal leave the stream where it was.
* A tenant's units are seeded by their place in its policy, not by the
  Cells its slice landed on: co-tenants do not move its picks.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Policy,
    PolicyInterpreter,
    TableRef,
    min_of,
    predicate,
    random_pick,
    round_robin,
)
from repro.switch.filter_module import FilterModule, PacketBatch
from repro.tenancy.manager import TenantManager, TenantSpec

METRICS = ("cpu", "mem")

POLICIES = {
    "round-robin": lambda: Policy(round_robin(TableRef(), "cpu"), name="rr"),
    "random": lambda: Policy(random_pick(TableRef()), name="random"),
}


def _reference(policy: Policy, lfsr_seed: int, smbm, count: int) -> list[int]:
    reference = PolicyInterpreter(policy, lfsr_seed=lfsr_seed)
    return [reference.evaluate(smbm).value for _ in range(count)]


@pytest.mark.parametrize("make", POLICIES.values(), ids=POLICIES)
@pytest.mark.parametrize("lfsr_seed", [1, 7])
def test_a_cell_kill_and_its_heal_continue_the_units_stream(make, lfsr_seed):
    policy = make()
    module = FilterModule(8, METRICS, policy, lfsr_seed=lfsr_seed,
                          self_healing=True)
    for rid in range(6):
        module.update_resource(rid, {"cpu": 2, "mem": rid})
    served = [module.evaluate().value for _ in range(3)]
    module.inject_cell_kill(*module.compiled.pipeline.active_cells()[0])
    # The next row meets the dead Cell, heals onto the surviving ones and
    # serves; the rows after it are back on the kernel.
    served += [module.evaluate().value for _ in range(3)]
    assert module.degraded
    batch = PacketBatch.uniform(4)
    module.evaluate_batch(batch)
    served += batch.outputs
    assert served == _reference(policy, lfsr_seed, module.smbm, len(served))


def test_the_cells_serve_a_live_fault_from_the_owners_state():
    """Without self-healing the Cells serve every row while the fault is
    live: they load the owner's units before each walk and store them
    back after, so taking the fault away resumes the same stream."""
    policy = POLICIES["round-robin"]()
    module = FilterModule(8, METRICS, policy)
    for rid in range(6):
        module.update_resource(rid, {"cpu": 2, "mem": rid})
    served = [module.evaluate().value for _ in range(2)]
    pos = module.compiled.pipeline.active_cells()[0]
    module.inject_cell_stuck(*pos, 2, 0)  # a column the plan does not read
    served += [module.evaluate().value for _ in range(3)]
    module.remove_cell_stuck(*pos, 2)
    served += [module.evaluate().value for _ in range(3)]
    assert served == _reference(policy, 1, module.smbm, len(served))


def _random_tenant_stream(neighbours: int, count: int = 12) -> list[int]:
    manager = TenantManager(METRICS, PipelineParams(n=8), smbm_capacity=64)
    for i in range(neighbours):
        manager.admit(TenantSpec(f"n{i}", Policy(
            min_of(predicate(TableRef(), "cpu", "<", 50), "mem"),
            name=f"n{i}"), smbm_quota=8))
    tenant = manager.admit(TenantSpec(
        "r", Policy(random_pick(TableRef()), name="random"),
        smbm_quota=8, lfsr_seed=5))
    for rid in range(8):
        tenant.module.update_resource(rid, {"cpu": rid, "mem": rid})
    stream = [tenant.module.evaluate().value for _ in range(count)]
    assert stream == _reference(tenant.module.policy, 5,
                                tenant.module.smbm, count)
    return stream


def test_a_random_tenants_picks_do_not_depend_on_its_co_tenants():
    assert _random_tenant_stream(0) == _random_tenant_stream(2)

"""Two-tenant isolation acceptance: a co-tenant never touches a trace.

The acceptance contract of the virtualization layer: with tenants A and
B sharing one pipeline, a seeded interleaving of both tenants' writes and
packets through the switch leaves each tenant's output trace
**bit-identical** to a golden solo run of its policy.
"""

from __future__ import annotations

from repro.core.operators import RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import Policy, TableRef, min_of, predicate
from repro.rmt.packet import META_TENANT, Packet
from repro.switch.filter_module import (
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    FilterModule,
)
from repro.switch.thanos_switch import ThanosSwitch
from repro.tenancy import TenantManager, TenantSpec

PARAMS = PipelineParams(n=8)
METRICS = ("q", "load")
QUOTA = 8


def _policy_a() -> Policy:
    return Policy(min_of(TableRef(), "q"), name="pa")


def _policy_b() -> Policy:
    return Policy(predicate(TableRef(), "load", RelOp.LT, 500), name="pb")


def _schedule(rng, rounds: int):
    """A seeded interleaving of table writes and filter packets for both
    tenants.  Returned as a list of ("write", tenant, rid, metrics) and
    ("packet", tenant) steps, deterministic in the rng."""
    steps = []
    for _ in range(rounds):
        tenant = rng.choice(("a", "b"))
        if rng.random() < 0.4:
            steps.append((
                "write", tenant, rng.randrange(QUOTA),
                {"q": rng.randrange(1000), "load": rng.randrange(1000)},
            ))
        else:
            steps.append(("packet", tenant))
    return steps


def _golden_trace(steps, policy, tenant: str) -> list[int]:
    """Run one tenant's projection of the schedule on a dedicated solo
    module: the trace B would produce if it had the switch to itself."""
    solo = FilterModule(QUOTA, METRICS, policy, PARAMS)
    trace = []
    for step in steps:
        if step[1] != tenant:
            continue
        if step[0] == "write":
            _, _, rid, metrics = step
            solo.update_resource(rid, metrics)
        else:
            trace.append(solo.evaluate().value)
    return trace


def test_batched_two_tenant_isolation(rng):
    """The same isolation contract on the batched path: a mixed packet
    stream through process_batch demuxes into per-tenant sub-batches
    whose outputs match each tenant's solo trace."""
    steps = _schedule(rng, rounds=80)
    golden_a = _golden_trace(steps, _policy_a(), "a")
    golden_b = _golden_trace(steps, _policy_b(), "b")

    mgr = TenantManager(METRICS, PARAMS, smbm_capacity=4 * QUOTA)
    mgr.admit(TenantSpec("a", _policy_a(), smbm_quota=QUOTA, columns=2))
    mgr.admit(TenantSpec("b", _policy_b(), smbm_quota=QUOTA, columns=1))
    switch = ThanosSwitch(mgr)

    # Writes act as batch boundaries; build maximal packet runs between
    # them, exactly like the probe-path batching contract.
    trace = {"a": [], "b": []}
    run: list[Packet] = []

    def flush():
        if run:
            switch.process_batch(run)
            for p in run:
                trace[p.metadata[META_TENANT]].append(
                    p.metadata[META_FILTER_OUTPUT]
                )
            run.clear()

    for step in steps:
        if step[0] == "write":
            flush()
            _, tenant, rid, metrics = step
            mgr.get(tenant).module.update_resource(rid, metrics)
        else:
            run.append(Packet(metadata={
                META_FILTER_REQUEST: 1, META_TENANT: step[1],
            }))
    flush()

    assert trace["a"] == golden_a
    assert trace["b"] == golden_b

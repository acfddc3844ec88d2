"""Load balancing over switch ports (section 7.2.4).

* **Policy 1** — random output port;
* **Policy 2** — least queued output port;
* **Policy 3** — DRILL: sample ``d`` random ports, consider also the ``m``
  least loaded samples remembered from the previous time slot, pick the
  minimum-queue port among them, and remember this slot's samples.

DRILL's Table 5 expression in Thanos is::

    union( K=d random(table),  K=m min(queue)(previous samples) )
        |> K=1 min(queue)

where "previous samples" is input line 1, which the policy's own
:attr:`~repro.core.policy.Policy.feedback` binds to the union: the register
lives in the compiled policy of each switch's
:class:`~repro.switch.filter_module.FilterModule`, beside its LFSRs.
Policies 2 and 3 run that module per packet, like every other NF here.

Queue lengths are *local* metrics: in hardware they are event-maintained in
the SMBM at enqueue/dequeue (section 3); here we write the live queue depths
into the SMBM right before each decision, which is equivalent at decision
time.
"""

from __future__ import annotations

import random

from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Policy,
    TableRef,
    min_of,
    random_pick,
    union,
)
from repro.errors import ConfigurationError
from repro.netsim.packet import NetPacket
from repro.netsim.switch import NetSwitch
from repro.switch.filter_module import FilterModule

__all__ = ["RandomPortPolicy", "LeastQueuedPortPolicy", "DrillPolicy",
           "drill_policy_ast"]

#: Queue depths are stored in the SMBM in 64-byte units to stay in int range.
QUEUE_UNIT_BYTES = 64


class RandomPortPolicy:
    """Policy 1: uniform random among candidate ports."""

    def __init__(self, rng: random.Random):
        self._rng = rng

    def choose(self, switch: NetSwitch, packet: NetPacket,
               candidates: list[int]) -> int:
        return self._rng.choice(candidates)


class _PortTablePolicy:
    """Shared machinery: one filter module per switch whose table is the
    candidate ports with their queue depths (resource id = index into the
    candidate list), programmed with ``policy``.

    ``update_period_s`` models how often the hardware samples the queue
    registers into the SMBM: every decision within one period sees the same
    snapshot, exactly like the multiple in-flight decisions of a real
    multi-pipeline ingress.  Zero means a fresh snapshot per decision.
    The herding this staleness induces in "pick the global minimum" is the
    effect DRILL's randomised sampling is designed to break.
    """

    def __init__(self, policy: Policy, params: PipelineParams, *,
                 lfsr_seed: int = 1, update_period_s: float = 0.0):
        self.update_period_s = update_period_s
        self._policy = policy
        self._params = params
        self._lfsr_seed = lfsr_seed

    def _port_module(self, switch: NetSwitch,
                     candidates: list[int]) -> FilterModule:
        module = switch.attachments.get("portlb_module")
        if not isinstance(module, FilterModule):
            module = FilterModule(
                max(len(candidates), 2), ["queue"], self._policy,
                self._params, lfsr_seed=self._lfsr_seed,
            )
            switch.attachments["portlb_module"] = module
            switch.attachments["portlb_snapshot_at"] = float("-inf")
        now = switch._sim.now
        last = switch.attachments["portlb_snapshot_at"]
        if self.update_period_s and now - last < self.update_period_s:
            return module  # decisions within the period share the snapshot
        switch.attachments["portlb_snapshot_at"] = now
        for index, port in enumerate(candidates):
            # Queue metric = drain time in tenths of a microsecond, so ports
            # of unequal speed compare correctly (a short queue on a slow
            # port is still a long wait).
            link = switch.ports[port]
            drain_s = link.queued_bytes * 8 / link.bandwidth_bps
            module.update_resource(index, {"queue": int(drain_s * 1e7)})
        return module

    def choose(self, switch: NetSwitch, packet: NetPacket,
               candidates: list[int]) -> int:
        selected = self._port_module(switch, candidates).select()
        if selected is None or selected >= len(candidates):
            return candidates[0]
        return candidates[selected]


class LeastQueuedPortPolicy(_PortTablePolicy):
    """Policy 2: the least-queued port, ``min(queue)`` over the table."""

    def __init__(self, params: PipelineParams | None = None,
                 update_period_s: float = 0.0):
        super().__init__(
            Policy(min_of(TableRef(), "queue"), name="portlb-least-queued"),
            params or PipelineParams(n=2, k=1, f=2, chain_length=1),
            update_period_s=update_period_s,
        )


def drill_policy_ast(d: int, m: int) -> Policy:
    """The DRILL(d, m) policy: with ``m > 0`` its ``examined`` union is fed
    back to input line 1, the next decision's "previous samples"."""
    if d < 1 or m < 0:
        raise ConfigurationError(f"DRILL needs d >= 1 and m >= 0, got d={d} m={m}")
    examined = random_pick(TableRef(), k=d)
    feedback = {}
    if m > 0:  # no memory, no register
        remembered = min_of(TableRef(input_index=1), "queue", k=m)
        examined = union(examined, remembered)
        feedback = {1: examined}
    return Policy(min_of(examined, "queue"), name=f"drill-d{d}-m{m}",
                  feedback=feedback)


class DrillPolicy(_PortTablePolicy):
    """Policy 3: DRILL(d, m), per-packet decisions on the compiled filter.

    Each switch's module holds its own ``examined`` register, so switches
    sharing one ``DrillPolicy`` share neither memory nor table.
    """

    def __init__(
        self,
        d: int = 2,
        m: int = 1,
        *,
        params: PipelineParams | None = None,
        lfsr_seed: int = 1,
        update_period_s: float = 0.0,
    ):
        self.d = d
        self.m = m
        super().__init__(
            drill_policy_ast(d, m),
            params or PipelineParams(n=4, k=3, f=2, chain_length=max(d, m, 1)),
            lfsr_seed=lfsr_seed, update_period_s=update_period_s,
        )

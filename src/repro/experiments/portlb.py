"""The Figure 18 experiment: load balancing over switch ports (DRILL).

Same traffic as Figure 17, but forwarding decisions are made *per packet*
from purely local state (egress queue depths):

* Policy 1 — random port;
* Policy 2 — least queued port;
* Policy 3 — DRILL(d, m).

Policies 2 and 3 are decided by the compiled filter: one
:class:`~repro.switch.filter_module.FilterModule` per switch, whose compiled
policy also holds DRILL's ``examined`` feedback register.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.netsim.sim import Simulator
from repro.netsim.topology import build_leaf_spine
from repro.policies.portlb import DrillPolicy, LeastQueuedPortPolicy, RandomPortPolicy
from repro.workloads.poisson import PoissonFlowGenerator
from repro.workloads.websearch import WebSearchFlowSizes

__all__ = ["PortLBExperimentConfig", "PortLBExperimentResult",
           "run_portlb_experiment"]


@dataclass(frozen=True)
class PortLBExperimentConfig:
    """Knobs for one Figure 18 run."""

    policy: str = "policy1"          # policy1 | policy2 | policy3
    load: float = 0.5
    seed: int = 1
    d: int = 2
    m: int = 1
    n_leaf: int = 8
    n_spine: int = 8
    hosts_per_leaf: int = 4
    bandwidth_bps: float = 1e9
    duration_s: float = 0.05
    drain_s: float = 0.4
    flow_scale: float = 0.1
    # How often queue registers are sampled into the decision snapshot; all
    # decisions within one period share it (multi-pipeline staleness).
    # Zero = a fresh snapshot per decision (DRILL's per-packet updates).
    update_period_s: float = 0.0
    # Fabric asymmetry, as in the routing experiment: DRILL's randomised
    # sampling has to steer around slow ports that random spraying hits.
    degraded_spines: int = 2
    degraded_fraction: float = 0.1


@dataclass(frozen=True)
class PortLBExperimentResult:
    config: PortLBExperimentConfig
    mean_fct: float
    p99_fct: float
    completed: int
    drops: int


def _policy_factory(config: PortLBExperimentConfig):
    counter = {"n": 0}

    def factory(_net):
        counter["n"] += 1
        seed = config.seed * 1000 + counter["n"]
        if config.policy == "policy1":
            return RandomPortPolicy(random.Random(seed))
        if config.policy == "policy2":
            return LeastQueuedPortPolicy(update_period_s=config.update_period_s)
        if config.policy == "policy3":
            return DrillPolicy(
                d=config.d, m=config.m, lfsr_seed=seed % 4093 + 1,
                update_period_s=config.update_period_s,
            )
        raise ConfigurationError(f"unknown port LB policy {config.policy!r}")

    return factory


def run_portlb_experiment(config: PortLBExperimentConfig) -> PortLBExperimentResult:
    """Run one (policy, load) point of Figure 18."""
    sim = Simulator()
    net = build_leaf_spine(
        sim,
        n_leaf=config.n_leaf,
        n_spine=config.n_spine,
        hosts_per_leaf=config.hosts_per_leaf,
        bandwidth_bps=config.bandwidth_bps,
        policy_factory=_policy_factory(config),
        flowlet_gap_s=None,  # DRILL decides per packet
    )
    for sp in range(config.degraded_spines):
        rate = config.bandwidth_bps * config.degraded_fraction
        for l in range(config.n_leaf):
            net.link_between(f"leaf{l}", f"spine{sp}").renegotiate(rate)
            net.link_between(f"spine{sp}", f"leaf{l}").renegotiate(rate)
    sizes = WebSearchFlowSizes(random.Random(config.seed + 1),
                               scale=config.flow_scale)
    generator = PoissonFlowGenerator(
        random.Random(config.seed + 2), list(net.hosts), sizes,
        config.load, config.bandwidth_bps,
    )
    flows = list(generator.flows(duration_s=config.duration_s))
    for flow in flows:
        sim.at(flow.start_time, lambda f=flow: net.start_flow(f))
    # Done once every flow has finished and the fabric holds no packet, as
    # in the routing experiment: past that point only dead timers run.
    recorder = net.recorder
    sim.run(until=config.duration_s + config.drain_s,
            stop=lambda: recorder.finished == len(flows) and net.idle())
    return PortLBExperimentResult(
        config=config,
        mean_fct=net.recorder.mean_fct(),
        p99_fct=net.recorder.percentile_fct(99),
        completed=len(net.recorder.completed),
        drops=net.total_drops(),
    )

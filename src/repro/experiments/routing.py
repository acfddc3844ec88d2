"""The Figure 17 experiment: performance-aware routing.

Web-search flows arrive as a Poisson process between random host pairs on a
leaf-spine fabric; leaf switches route flowlets over the spines with one of
the three section 7.2.3 policies; the output is the mean FCT.

Scale substitutions versus the paper (documented in DESIGN.md): the paper
simulates ~450 hosts at 10 Gbps; we default to 32 hosts at 1 Gbps with flow
sizes scaled by 0.1, which keeps per-run event counts within a Python
budget while preserving the relative ordering of the policies.  The spine
count (8) exceeds the paper's top-X (5), so Policy 3's triple top-X
intersection is meaningfully selective.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.pipeline import PipelineParams
from repro.errors import ConfigurationError
from repro.netsim.probes import PathMetricsDirectory, ProbeService
from repro.netsim.sim import Simulator
from repro.netsim.topology import build_leaf_spine
from repro.policies.routing import RandomUplinkPolicy, ThanosRoutingPolicy
from repro.workloads.poisson import PoissonFlowGenerator
from repro.workloads.websearch import WebSearchFlowSizes

__all__ = ["RoutingExperimentConfig", "RoutingExperimentResult",
           "run_routing_experiment"]


@dataclass(frozen=True)
class RoutingExperimentConfig:
    """Knobs for one Figure 17 run."""

    policy: str = "policy1"          # policy1 | policy2 | policy3
    load: float = 0.5
    seed: int = 1
    # Fabric: the Figure 15 leaf-spine by default, or the paper's FatTree
    # simulator topology with ``topology="fat_tree"`` (then ``fat_tree_k``
    # applies and the leaf/spine counts are ignored).
    topology: str = "leaf_spine"
    fat_tree_k: int = 4
    n_leaf: int = 8
    n_spine: int = 8
    hosts_per_leaf: int = 4
    bandwidth_bps: float = 1e9
    duration_s: float = 0.05
    drain_s: float = 0.4
    flow_scale: float = 0.1
    top_x: int = 5
    probe_period_s: float = 1e-3
    flowlet_gap_s: float = 5e-3
    metrics_tau_s: float = 3e-3
    # Fabric asymmetry: this many spines run their leaf links at
    # ``degraded_fraction`` of nominal rate (auto-negotiated down), the
    # regime where congestion-aware routing separates from random spreading.
    degraded_spines: int = 1
    degraded_fraction: float = 0.25
    # Flaky links: this many spines (taken from the high end) corrupt a
    # fraction of packets.  A lossy link reads as lightly utilised, so
    # utilisation-only routing (Policy 2) is drawn to it; Policy 3's loss
    # dimension filters it out.
    flaky_spines: int = 2
    flaky_error_rate: float = 0.10


@dataclass(frozen=True)
class RoutingExperimentResult:
    config: RoutingExperimentConfig
    mean_fct: float
    p99_fct: float
    completed: int
    drops: int
    policy_decisions: int


class _Deferred:
    """Placeholder forwarding policy installed before the network exists."""

    def __init__(self) -> None:
        self.inner = None

    def choose(self, switch, packet, candidates):
        if self.inner is None:
            raise ConfigurationError("forwarding policy not yet installed")
        return self.inner.choose(switch, packet, candidates)


def run_routing_experiment(config: RoutingExperimentConfig) -> RoutingExperimentResult:
    """Run one (policy, load) point of Figure 17."""
    sim = Simulator()
    shared = _Deferred()
    if config.topology == "leaf_spine":
        net = build_leaf_spine(
            sim,
            n_leaf=config.n_leaf,
            n_spine=config.n_spine,
            hosts_per_leaf=config.hosts_per_leaf,
            bandwidth_bps=config.bandwidth_bps,
            policy_factory=lambda n: shared,
            flowlet_gap_s=config.flowlet_gap_s,
            metrics_tau_s=config.metrics_tau_s,
        )
        core_names = [f"spine{s}" for s in range(config.n_spine)]
        edge_names = [f"leaf{l}" for l in range(config.n_leaf)]

        def core_links(core: str):
            for edge in edge_names:
                yield net.link_between(edge, core)
                yield net.link_between(core, edge)

    elif config.topology == "fat_tree":
        from repro.netsim.topology import build_fat_tree

        net = build_fat_tree(
            sim,
            k=config.fat_tree_k,
            bandwidth_bps=config.bandwidth_bps,
            policy_factory=lambda n: shared,
            flowlet_gap_s=config.flowlet_gap_s,
            metrics_tau_s=config.metrics_tau_s,
        )
        half = config.fat_tree_k // 2
        core_names = [f"core{c}" for c in range(half * half)]

        def core_links(core: str):
            index = int(core.removeprefix("core"))
            a = index // half
            for pod in range(config.fat_tree_k):
                agg = f"agg{pod}_{a}"
                yield net.link_between(agg, core)
                yield net.link_between(core, agg)

    else:
        raise ConfigurationError(
            f"unknown topology {config.topology!r}; "
            "expected leaf_spine or fat_tree"
        )

    # Degrade the first cores/spines, make the last ones flaky.
    rate = config.bandwidth_bps * config.degraded_fraction
    for core in core_names[: config.degraded_spines]:
        for link in core_links(core):
            link.renegotiate(rate)
    error_rng = random.Random(config.seed + 77)
    flaky = core_names[len(core_names) - config.flaky_spines:] \
        if config.flaky_spines else []
    for core in flaky:
        for link in core_links(core):
            link.set_error_rate(config.flaky_error_rate, error_rng)

    if config.policy == "policy1":
        shared.inner = RandomUplinkPolicy(random.Random(config.seed + 10))
    else:
        directory = PathMetricsDirectory(net)
        service = ProbeService(sim, period_s=config.probe_period_s)
        shared.inner = ThanosRoutingPolicy(
            net, directory, service, config.policy,
            top_x=config.top_x,
            params=PipelineParams(n=8, k=4, f=2, chain_length=8),
            rng=random.Random(config.seed + 10),
        )
        service.start()

    sizes = WebSearchFlowSizes(random.Random(config.seed + 1),
                               scale=config.flow_scale)
    generator = PoissonFlowGenerator(
        random.Random(config.seed + 2), list(net.hosts), sizes,
        config.load, config.bandwidth_bps,
    )
    flows = list(generator.flows(duration_s=config.duration_s))
    for flow in flows:
        sim.at(flow.start_time, lambda f=flow: net.start_flow(f))
    # Done once every flow has finished and the fabric holds no packet:
    # past that point only probe refreshes and dead timers run, and they
    # move no result.
    recorder = net.recorder
    sim.run(until=config.duration_s + config.drain_s,
            stop=lambda: recorder.finished == len(flows) and net.idle())

    decisions = sum(s.policy_decisions for s in net.switches.values())
    return RoutingExperimentResult(
        config=config,
        mean_fct=net.recorder.mean_fct(),
        p99_fct=net.recorder.percentile_fct(99),
        completed=len(net.recorder.completed),
        drops=net.total_drops(),
        policy_decisions=decisions,
    )

"""The Figure 16 experiment: L4 load balancing over database servers.

Clients replay a Zipf query trace against the replicated graph database;
the spine load balancer maps each query with Policy 1 (random) or Policy 2
(resource-aware random with fallback); servers process at a speed set by
their synthetic background load.  The figure is the CDF of per-percentile
response-time improvement of Policy 2 over Policy 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graphdb.cluster import GraphDBCluster
from repro.netsim.sim import Simulator
from repro.workloads.traces import ResourceConsumptionTrace, ZipfQueryTrace

__all__ = ["L4LBExperimentConfig", "L4LBExperimentResult", "run_l4lb_experiment"]


@dataclass(frozen=True)
class L4LBExperimentConfig:
    """Knobs for one Figure 16 run (one policy)."""

    which_policy: int = 1
    seed: int = 5
    n_servers: int = 12
    n_queries: int = 2000
    query_rate_hz: float = 150.0
    n_nodes: int = 200
    probe_period_s: float = 10e-3
    network_rtt_s: float = 200e-6
    # Background-load shape: servers oscillate between nearly idle and
    # nearly saturated, so a random pick routinely lands on a busy server
    # while the resource-aware filter finds the idle ones.
    base_cpu: float = 0.75
    cpu_swing: float = 0.20
    # Background-load period; the trace must complete several cycles within
    # the experiment so results average over server states.
    trace_period_s: float = 8.0
    # Eligibility threshold, aligned with the servers' full-speed plateau
    # (a query uses at most ~35% of a CPU, so cpu < 65% means full speed).
    cpu_limit: int = 65


@dataclass(frozen=True)
class L4LBExperimentResult:
    config: L4LBExperimentConfig
    response_times: list[float]
    by_query: dict[int, float]

    def mean(self) -> float:
        return sum(self.response_times) / len(self.response_times)

    def percentile(self, p: float) -> float:
        ordered = sorted(self.response_times)
        rank = min(len(ordered) - 1, max(0, int(round(p / 100 * (len(ordered) - 1)))))
        return ordered[rank]

    def per_query_ratios(self, other: "L4LBExperimentResult") -> list[float]:
        """Figure 16's quantity: this run's response time divided by the
        other run's, per query, sorted ascending (a CDF's x-values)."""
        common = sorted(set(self.by_query) & set(other.by_query))
        return sorted(self.by_query[q] / other.by_query[q] for q in common)


def run_l4lb_experiment(config: L4LBExperimentConfig) -> L4LBExperimentResult:
    """Run one policy's pass over the query trace."""
    sim = Simulator()
    trace = ResourceConsumptionTrace(
        config.n_servers, random.Random(config.seed),
        base_cpu=config.base_cpu, cpu_swing=config.cpu_swing,
        period_s=config.trace_period_s,
    )
    cluster = GraphDBCluster(
        sim, config.n_servers, config.which_policy, trace,
        probe_period_s=config.probe_period_s,
        network_rtt_s=config.network_rtt_s,
        cpu_limit=config.cpu_limit,
        lfsr_seed=config.seed % 4093 + 1,
    )
    qtrace = ZipfQueryTrace(config.n_nodes, random.Random(config.seed + 1))
    queries = qtrace.generate(
        config.n_queries, clients=[0, 1, 2, 3], rate_hz=config.query_rate_hz
    )
    cluster.submit_trace(queries)
    sim.run(until=queries[-1].arrival_time + 120.0,
            stop=lambda: len(cluster.results) == len(queries))
    return L4LBExperimentResult(
        config=config,
        response_times=cluster.response_times(),
        by_query={r.query.query_id: r.response_time for r in cluster.results},
    )

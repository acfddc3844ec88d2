"""The Figure 19 experiment: in-network caching of graph queries.

Re-runs the section 7.2.2 trace with spine switches implementing Policy 2,
but now each query first consults the leaf switch's SMBM cache of popular
nodes.  A hit is answered at the switch (one switch round trip, no server
processing); a miss follows the full path.  The figure is the CDF of
response time with caching normalised to no caching: the cached ~50% of
queries improve by 2.8-4x.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graphdb.cache import InNetworkCache
from repro.graphdb.cluster import GraphDBCluster, QueryResult
from repro.graphdb.graph import CourseGraph
from repro.netsim.sim import Simulator
from repro.workloads.traces import ResourceConsumptionTrace, ZipfQueryTrace

__all__ = ["CachingExperimentConfig", "CachingExperimentResult",
           "run_caching_experiment"]


@dataclass(frozen=True)
class CachingExperimentConfig:
    """Knobs for one Figure 19 run."""

    enable_cache: bool = True
    seed: int = 5
    n_servers: int = 4
    n_queries: int = 2000
    query_rate_hz: float = 600.0
    n_nodes: int = 200
    cached_nodes: int = 64
    zipf_alpha: float = 1.4
    network_rtt_s: float = 500e-6
    switch_rtt_s: float = 320e-6


@dataclass(frozen=True)
class CachingExperimentResult:
    config: CachingExperimentConfig
    results: list[QueryResult]

    def response_times(self) -> list[float]:
        return [r.response_time for r in self.results]

    def cache_hit_fraction(self) -> float:
        hits = sum(1 for r in self.results if r.served_from_cache)
        return hits / len(self.results) if self.results else 0.0


class _CachingCluster(GraphDBCluster):
    """A cluster whose leaf switch answers cache hits directly."""

    def __init__(self, *args, cache: InNetworkCache | None,
                 switch_rtt_s: float, **kwargs):
        super().__init__(*args, **kwargs)
        self._cache = cache
        self._switch_rtt = switch_rtt_s

    def _dispatch(self, query) -> None:
        if self._cache is not None and self._cache.serve(query) is not None:
            # Answered at the leaf switch: only the client<->switch hop.
            self.results.append(
                QueryResult(
                    query=query, server=-1,
                    response_time=self._switch_rtt,
                    served_from_cache=True,
                )
            )
            return
        super()._dispatch(query)


def run_caching_experiment(
    config: CachingExperimentConfig,
) -> CachingExperimentResult:
    """One pass over the trace, with or without the leaf cache."""
    sim = Simulator()
    rng = random.Random(config.seed)
    graph = CourseGraph.random(config.n_nodes, rng, edge_probability=0.03)
    qtrace = ZipfQueryTrace(
        config.n_nodes, random.Random(config.seed + 1), alpha=config.zipf_alpha
    )
    cache = None
    if config.enable_cache:
        cache = InNetworkCache(graph, qtrace.popular_nodes(config.cached_nodes))
    trace = ResourceConsumptionTrace(config.n_servers, random.Random(config.seed + 2))
    cluster = _CachingCluster(
        sim, config.n_servers, 2, trace,
        network_rtt_s=config.network_rtt_s,
        cache=cache,
        switch_rtt_s=config.switch_rtt_s,
        lfsr_seed=config.seed % 4093 + 1,
    )
    queries = qtrace.generate(
        config.n_queries, clients=[0, 1, 2, 3], rate_hz=config.query_rate_hz
    )
    cluster.submit_trace(queries)
    sim.run(until=queries[-1].arrival_time + 120.0,
            stop=lambda: len(cluster.results) == len(queries))
    return CachingExperimentResult(config=config, results=cluster.results)

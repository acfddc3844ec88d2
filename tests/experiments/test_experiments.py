"""Integration tests for the figure-experiment harnesses.

These run each experiment at miniature scale — enough to exercise the full
stack (policies -> compiled pipelines -> simulator) and its invariants, not
to reproduce the paper's factors (that is the benchmarks' job).
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    CachingExperimentConfig,
    L4LBExperimentConfig,
    PortLBExperimentConfig,
    RoutingExperimentConfig,
    run_caching_experiment,
    run_l4lb_experiment,
    run_portlb_experiment,
    run_routing_experiment,
)
from repro.netsim.sim import Simulator

TINY_ROUTING = dict(
    n_leaf=4, n_spine=4, hosts_per_leaf=2, duration_s=0.01, drain_s=0.3,
    load=0.5, seed=2,
)


class TestRoutingExperiment:
    @pytest.mark.parametrize("policy", ["policy1", "policy2", "policy3"])
    def test_runs_and_completes_flows(self, policy):
        result = run_routing_experiment(
            RoutingExperimentConfig(policy=policy, **TINY_ROUTING)
        )
        assert result.completed > 10
        assert result.mean_fct > 0
        assert result.p99_fct >= result.mean_fct
        if policy != "policy1":
            assert result.policy_decisions > 0

    def test_deterministic_given_seed(self):
        a = run_routing_experiment(
            RoutingExperimentConfig(policy="policy2", **TINY_ROUTING)
        )
        b = run_routing_experiment(
            RoutingExperimentConfig(policy="policy2", **TINY_ROUTING)
        )
        assert a.mean_fct == b.mean_fct
        assert a.drops == b.drops

    def test_run_ends_with_its_last_flow(self):
        """The run stops once every flow is done and the fabric is empty,
        so a ten-times longer drain horizon changes nothing."""
        config = RoutingExperimentConfig(policy="policy3", **TINY_ROUTING)
        longer = RoutingExperimentConfig(policy="policy3", **{
            **TINY_ROUTING, "drain_s": 10 * TINY_ROUTING["drain_s"]})
        a = run_routing_experiment(config)
        b = run_routing_experiment(longer)
        assert b == dataclasses.replace(a, config=longer)

    def test_stopping_early_equals_running_to_the_horizon(self, monkeypatch):
        """On this lossy fabric ACKs are still on the wire when the last
        flow finishes, and one of them is dropped: the run must wait for
        an empty fabric, not stop at the last completion."""
        config = RoutingExperimentConfig(policy="policy1", **{
            **TINY_ROUTING, "seed": 35, "load": 0.8,
            "flaky_error_rate": 0.4, "flowlet_gap_s": 1e-4})
        early = run_routing_experiment(config)
        run = Simulator.run
        monkeypatch.setattr(Simulator, "run",
                            lambda self, until=None, stop=None: run(self, until))
        assert run_routing_experiment(config) == early

    def test_seed_changes_outcome(self):
        base = dict(TINY_ROUTING)
        a = run_routing_experiment(
            RoutingExperimentConfig(policy="policy1", **base)
        )
        base["seed"] = 9
        b = run_routing_experiment(
            RoutingExperimentConfig(policy="policy1", **base)
        )
        assert a.mean_fct != b.mean_fct

    def test_degraded_links_increase_fct(self):
        base = dict(TINY_ROUTING)
        clean = run_routing_experiment(RoutingExperimentConfig(
            policy="policy1", degraded_spines=0, flaky_spines=0, **base
        ))
        degraded = run_routing_experiment(RoutingExperimentConfig(
            policy="policy1", degraded_spines=2, degraded_fraction=0.2,
            flaky_spines=0, **base
        ))
        assert degraded.mean_fct > clean.mean_fct


class TestPortLBExperiment:
    @pytest.mark.parametrize("policy", ["policy1", "policy2", "policy3"])
    def test_runs(self, policy):
        result = run_portlb_experiment(PortLBExperimentConfig(
            policy=policy, n_leaf=4, n_spine=4, hosts_per_leaf=2,
            duration_s=0.01, drain_s=0.3, load=0.5, seed=2,
        ))
        assert result.completed > 10

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            run_portlb_experiment(PortLBExperimentConfig(
                policy="policy9", duration_s=0.005, load=0.4,
            ))


class TestL4LBExperiment:
    N_QUERIES = 400

    @pytest.fixture(scope="class")
    def pair(self):
        """Policies 1 and 2 over the same query stream, run once for the
        whole class (a run is seconds; the results are read-only)."""
        return tuple(
            run_l4lb_experiment(L4LBExperimentConfig(
                which_policy=which, n_queries=self.N_QUERIES, seed=3))
            for which in (1, 2)
        )

    def test_runs_and_pairs(self, pair):
        r1, r2 = pair
        assert len(r1.response_times) == self.N_QUERIES
        assert len(r2.response_times) == self.N_QUERIES
        ratios = r1.per_query_ratios(r2)
        assert len(ratios) == self.N_QUERIES
        assert ratios == sorted(ratios)

    def test_percentile_bounds(self, pair):
        r = pair[0]
        assert r.percentile(0) <= r.percentile(50) <= r.percentile(100)

    def test_policy2_not_worse_on_average(self, pair):
        r1, r2 = pair
        assert r2.mean() < r1.mean()


class TestCachingExperiment:
    def test_cache_serves_and_speeds_up(self):
        kw = dict(n_queries=300, seed=3)
        nc = run_caching_experiment(CachingExperimentConfig(enable_cache=False, **kw))
        wc = run_caching_experiment(CachingExperimentConfig(enable_cache=True, **kw))
        assert nc.cache_hit_fraction() == 0.0
        assert wc.cache_hit_fraction() > 0.2
        mean_nc = sum(nc.response_times()) / len(nc.results)
        mean_wc = sum(wc.response_times()) / len(wc.results)
        assert mean_wc < mean_nc

    def test_cached_results_marked(self):
        wc = run_caching_experiment(
            CachingExperimentConfig(enable_cache=True, n_queries=200, seed=3)
        )
        cached = [r for r in wc.results if r.served_from_cache]
        assert cached
        assert all(r.server == -1 for r in cached)
        assert all(
            r.response_time == wc.config.switch_rtt_s for r in cached
        )


class TestFatTreeRouting:
    def test_fat_tree_topology_runs(self):
        result = run_routing_experiment(RoutingExperimentConfig(
            policy="policy2", topology="fat_tree", fat_tree_k=4,
            load=0.4, duration_s=0.006, drain_s=0.3, seed=2,
            top_x=2, degraded_spines=1, flaky_spines=1,
        ))
        assert result.completed > 5
        assert result.policy_decisions > 0

    def test_unknown_topology_rejected(self):
        with pytest.raises(Exception):
            run_routing_experiment(RoutingExperimentConfig(
                policy="policy1", topology="hypercube", duration_s=0.005,
            ))

"""Tests for the firewall, diagnosis, and Table 5 policy builders."""

import pytest

from repro.core.pipeline import PipelineParams
from repro.core.compiler import PolicyCompiler
from repro.core.smbm import SMBM
from repro.errors import ConfigurationError
from repro.policies.diagnosis import PortRateMonitor
from repro.policies.firewall import RateFirewall
from repro.policies.table5 import TABLE5_POLICIES, build_table5_policy


class TestRateFirewall:
    def test_low_rate_traffic_passes(self):
        fw = RateFirewall(8, rate_threshold_pps=10_000, tau_s=1e-3)
        t = 0.0
        for i in range(20):
            assert fw.on_packet(src=1, dst=2, now=t)
            t += 1e-3  # 1000 pps, well under threshold
        assert not fw.blacklisted_sources

    def test_flood_blacklists_all_senders_to_destination(self):
        """Figure 6: rate to D over T -> every source sending to D filtered."""
        fw = RateFirewall(8, rate_threshold_pps=5_000, tau_s=1e-3)
        t = 0.0
        # Two sources flood destination 3 at a combined 200k pps.
        verdicts = []
        for i in range(200):
            src = 1 if i % 2 else 2
            verdicts.append(fw.on_packet(src=src, dst=3, now=t))
            t += 5e-6
        assert {1, 2} <= fw.blacklisted_sources
        assert verdicts[-1] is False
        assert fw.packets_dropped > 0

    def test_innocent_sources_unaffected(self):
        fw = RateFirewall(8, rate_threshold_pps=5_000, tau_s=1e-3)
        t = 0.0
        for i in range(200):
            fw.on_packet(src=1, dst=3, now=t)
            t += 5e-6
        # Source 9 talks to a quiet destination: always forwarded.
        assert fw.on_packet(src=9, dst=4, now=t)
        assert 9 not in fw.blacklisted_sources

    def test_rate_decays(self):
        fw = RateFirewall(4, rate_threshold_pps=1_000, tau_s=1e-3)
        for i in range(50):
            fw.on_packet(src=1, dst=0, now=i * 1e-5)
        hot = fw.rate_of(0, 50e-5)
        assert fw.rate_of(0, 50e-5 + 0.1) < hot / 100

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            RateFirewall(0, 100)
        with pytest.raises(ConfigurationError):
            RateFirewall(4, 0)

    def test_out_of_range_destination_rejected(self):
        fw = RateFirewall(4, 100)
        with pytest.raises(ConfigurationError):
            fw.on_packet(src=0, dst=7, now=0.0)


class TestPortRateMonitor:
    def test_hot_ports_query(self):
        """Figure 5: filter all switch ports with packet rate > t."""
        mon = PortRateMonitor(8, rate_threshold_pps=50_000, tau_s=1e-3)
        t = 0.0
        for i in range(300):
            mon.on_packet(port=2, now=t)      # ~200k pps
            if i % 4 == 0:
                mon.on_packet(port=5, now=t)  # ~50k pps
            t += 5e-6
        assert mon.hot_ports() == {2}

    def test_no_hot_ports_initially(self):
        mon = PortRateMonitor(4, rate_threshold_pps=100)
        assert mon.hot_ports() == set()

    def test_multiple_hot_ports(self):
        mon = PortRateMonitor(4, rate_threshold_pps=10_000, tau_s=1e-3)
        t = 0.0
        for _ in range(200):
            mon.on_packet(0, t)
            mon.on_packet(3, t)
            t += 5e-6
        assert mon.hot_ports() == {0, 3}

    def test_rates_decay(self):
        mon = PortRateMonitor(2, rate_threshold_pps=100, tau_s=1e-3)
        for i in range(100):
            mon.on_packet(0, i * 1e-5)
        assert mon.rate_of(0, 1e-3) > mon.rate_of(0, 0.5)

    def test_port_bounds(self):
        mon = PortRateMonitor(2, 100)
        with pytest.raises(ConfigurationError):
            mon.on_packet(2, 0.0)


class TestTable5:
    """Every Table 5 policy compiles onto the paper's default pipeline
    (n=4, k=4, f=2, K=4) — the claim the defaults were chosen to support."""

    DEFAULTS = PipelineParams(n=4, k=4, f=2, chain_length=4)

    @pytest.mark.parametrize("key", TABLE5_POLICIES)
    def test_compiles_on_default_pipeline(self, key):
        compiled = PolicyCompiler(self.DEFAULTS).compile(
            build_table5_policy(key))
        assert compiled.latency_cycles == self.DEFAULTS.latency_cycles

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            build_table5_policy("nope")

    def test_semantics_smoke(self):
        """conga-min-util on a path table picks the least utilised path."""
        policy = build_table5_policy("conga-min-util")
        compiled = PolicyCompiler(self.DEFAULTS).compile(policy)
        smbm = SMBM(8, ["util", "queue", "loss"])
        for rid, util in [(0, 500), (1, 100), (2, 300)]:
            smbm.add(rid, {"util": util, "queue": 0, "loss": 0})
        assert compiled.select(smbm) == 1

"""Tests for port load balancing (DRILL) and L4 load balancing."""

import random

import pytest

from repro.core.pipeline import PipelineParams
from repro.core.smbm import SMBM
from repro.errors import CapacityError, ConfigurationError
from repro.netsim.packet import NetPacket
from repro.netsim.sim import Simulator
from repro.netsim.switch import NetSwitch
from repro.netsim.link import Link
from repro.policies.l4lb import ConnectionTable, L4LoadBalancer, l4lb_policy_ast
from repro.policies.portlb import (
    QUEUE_UNIT_BYTES,
    DrillPolicy,
    LeastQueuedPortPolicy,
    RandomPortPolicy,
    drill_policy_ast,
)


class _Sink:
    def __init__(self, sim):
        self.sim = sim
        self.name = "sink"

    def receive(self, packet, in_port):
        pass


def make_switch(n_ports=8, queue_fill=None):
    """A standalone switch whose port queues we can preload."""
    sim = Simulator()
    switch = NetSwitch(sim, "sw", flowlet_gap_s=None)
    sink = _Sink(sim)
    for p in range(n_ports):
        link = Link(sim, f"p{p}", sink, 0, bandwidth_bps=1e9,
                    queue_capacity_bytes=1_000_000)
        switch.add_port(link)
        for _ in range(queue_fill[p] if queue_fill else 0):
            link.send(NetPacket(1, 0, 1, 0, 1460))
    switch.set_up_ports(list(range(n_ports)))
    return sim, switch


def pkt():
    return NetPacket(5, 0, 99, 0, 1460)


class TestLeastQueuedPortPolicy:
    def test_picks_emptiest_port(self):
        sim, switch = make_switch(4, queue_fill=[5, 0, 9, 3])
        # Port 1 has nothing queued... but transmission started on all; the
        # emptiest by queued bytes should win.
        policy = LeastQueuedPortPolicy()
        chosen = policy.choose(switch, pkt(), switch.up_ports)
        depths = [switch.queue_bytes(p) for p in range(4)]
        assert depths[chosen] == min(depths)

    def test_tracks_changing_queues(self):
        sim, switch = make_switch(2, queue_fill=[6, 0])
        policy = LeastQueuedPortPolicy()
        assert policy.choose(switch, pkt(), switch.up_ports) == 1
        for _ in range(12):
            switch.ports[1].send(NetPacket(1, 0, 1, 0, 1460))
        assert policy.choose(switch, pkt(), switch.up_ports) == 0


class TestDrillAst:
    def test_ast_shape(self):
        policy = drill_policy_ast(d=2, m=1)
        assert policy.name == "drill-d2-m1"
        # Table 5's arrow: the examined union, the root's operand, drives
        # the line its own remembered half reads.
        assert policy.feedback == {1: policy.root.child}
        assert policy.root.child.right.child.input_index == 1

    def test_m_zero_has_no_feedback(self):
        assert drill_policy_ast(d=3, m=0).feedback == {}

    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            drill_policy_ast(d=0, m=1)


class TestDrillPolicy:
    def test_choice_is_min_queue_of_examined(self):
        """The DRILL invariant: the chosen port's queue is the minimum among
        some (d+m)-subset containing it — with d = N it is the global min."""
        n = 4
        sim, switch = make_switch(n, queue_fill=[7, 2, 9, 4])
        policy = DrillPolicy(d=n, m=0)
        chosen = policy.choose(switch, pkt(), switch.up_ports)
        depths = [switch.queue_bytes(p) for p in range(n)]
        assert depths[chosen] == min(depths)

    def test_memory_feeds_back(self):
        """With d=1, m=1, the remembered good port keeps winning against a
        random sample of one."""
        n = 4
        sim, switch = make_switch(n, queue_fill=[9, 9, 0, 9])
        policy = DrillPolicy(d=1, m=1, lfsr_seed=3)
        picks = [policy.choose(switch, pkt(), switch.up_ports) for _ in range(30)]
        # Once port 2 enters the sample set it is remembered and re-picked.
        assert picks.count(2) > len(picks) / 2

    def test_prev_samples_stored_per_switch(self):
        """Two switches sharing one policy object share neither table nor
        register: each converges on, and then never leaves, its own best
        port.  (A shared register would hand each switch the other's
        samples, and a remembered port would be lost every other packet.)"""
        _s1, sw1 = make_switch(4, queue_fill=[9, 9, 0, 9])
        _s2, sw2 = make_switch(4, queue_fill=[0, 9, 9, 9])
        policy = DrillPolicy(d=1, m=1)
        picks1, picks2 = [], []
        for _ in range(40):
            picks1.append(policy.choose(sw1, pkt(), sw1.up_ports))
            picks2.append(policy.choose(sw2, pkt(), sw2.up_ports))
        assert 2 in picks1 and 0 in picks2
        assert set(picks1[picks1.index(2):]) == {2}
        assert set(picks2[picks2.index(0):]) == {0}

    def test_random_port_policy(self):
        sim, switch = make_switch(4)
        policy = RandomPortPolicy(random.Random(2))
        seen = {policy.choose(switch, pkt(), switch.up_ports) for _ in range(100)}
        assert seen == {0, 1, 2, 3}


class TestConnectionTable:
    def test_insert_lookup(self):
        table = ConnectionTable()
        table.insert(42, 3)
        assert table.lookup(42) == 3
        assert table.hits == 1

    def test_miss_returns_none(self):
        assert ConnectionTable().lookup(1) is None

    def test_duplicate_rejected(self):
        table = ConnectionTable()
        table.insert(1, 0)
        with pytest.raises(ConfigurationError):
            table.insert(1, 1)

    def test_capacity(self):
        table = ConnectionTable(capacity=1)
        table.insert(1, 0)
        with pytest.raises(CapacityError):
            table.insert(2, 0)

    def test_remove(self):
        table = ConnectionTable()
        table.insert(1, 0)
        table.remove(1)
        assert table.lookup(1) is None


class TestL4LoadBalancer:
    def probe_all(self, lb, rows):
        for server, metrics in rows.items():
            lb.on_probe(server, metrics)

    def test_policy2_prefers_eligible_servers(self):
        lb = L4LoadBalancer(4, which_policy=2)
        self.probe_all(lb, {
            0: {"cpu": 90, "mem": 100, "bw": 100},    # ineligible
            1: {"cpu": 30, "mem": 3000, "bw": 5000},  # eligible
            2: {"cpu": 95, "mem": 50, "bw": 50},      # ineligible
            3: {"cpu": 40, "mem": 2000, "bw": 4000},  # eligible
        })
        for fid in range(20):
            assert lb.assign(fid) in {1, 3}

    def test_policy2_falls_back_when_none_eligible(self):
        lb = L4LoadBalancer(3, which_policy=2)
        self.probe_all(lb, {
            s: {"cpu": 99, "mem": 10, "bw": 10} for s in range(3)
        })
        servers = {lb.assign(fid) for fid in range(30)}
        assert servers <= {0, 1, 2}
        assert len(servers) > 1  # still spreading, not stuck

    def test_policy1_spreads_uniformly(self):
        lb = L4LoadBalancer(4, which_policy=1)
        self.probe_all(lb, {s: {"cpu": 50, "mem": 50, "bw": 50} for s in range(4)})
        counts = [0] * 4
        for fid in range(400):
            counts[lb.assign(fid)] += 1
        assert min(counts) > 40

    def test_connection_affinity(self):
        lb = L4LoadBalancer(4, which_policy=2)
        self.probe_all(lb, {s: {"cpu": 10, "mem": 9000, "bw": 9000} for s in range(4)})
        first = lb.assign(7)
        # Subsequent packets of the same flow must land on the same server
        # regardless of how the resource table changes.
        self.probe_all(lb, {s: {"cpu": 99, "mem": 1, "bw": 1} for s in range(4)})
        assert lb.assign(7) == first

    def test_release_allows_remap(self):
        lb = L4LoadBalancer(2, which_policy=1)
        self.probe_all(lb, {s: {"cpu": 50, "mem": 50, "bw": 50} for s in range(2)})
        lb.assign(1)
        lb.release(1)
        lb.assign(1)  # no duplicate-key error

    def test_probe_bounds_checked(self):
        lb = L4LoadBalancer(2, which_policy=1)
        with pytest.raises(ConfigurationError):
            lb.on_probe(5, {"cpu": 1, "mem": 1, "bw": 1})

    def test_policy_ast_validation(self):
        with pytest.raises(ConfigurationError):
            l4lb_policy_ast(3)

"""Tests for the event loop and links."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.netsim.link import Link
from repro.netsim.packet import HEADER_BYTES, NetPacket
from repro.netsim.sim import Simulator


class Sink:
    """A link endpoint that records deliveries."""

    def __init__(self, sim):
        self.sim = sim
        self.name = "sink"
        self.deliveries: list[tuple[float, NetPacket, int]] = []

    def receive(self, packet, in_port):
        self.deliveries.append((self.sim.now, packet, in_port))


def data_packet(size=1460, seq=0):
    return NetPacket(flow_id=1, src=0, dst=1, seq=seq, size_bytes=size)


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2e-3, lambda: order.append("b"))
        sim.schedule(1e-3, lambda: order.append("a"))
        sim.schedule(3e-3, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == pytest.approx(3e-3)

    def test_fifo_for_equal_timestamps(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1e-3, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_run_until_stops_the_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        sim.run(until=1.0)
        assert not fired
        assert sim.now == 1.0
        sim.run(until=10.0)
        assert fired

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(sim.now)
            sim.schedule(1.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [1.0, 2.0]

    def test_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        times = []
        sim.at(5.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [5.0]

    def test_stop_ends_the_run_after_the_first_event_it_holds_on(self):
        sim = Simulator()
        count = []

        def tick():
            count.append(sim.now)
            sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run(until=100.0, stop=lambda: len(count) == 10)
        assert len(count) == 10
        assert sim.now == 9.0          # the clock stays at the stopping event
        sim.run(until=100.0, stop=lambda: len(count) == 12)
        assert len(count) == 12

    def test_until_still_bounds_a_run_whose_stop_never_holds(self):
        sim = Simulator()
        count = []

        def tick():
            count.append(1)
            sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run(until=4.5, stop=lambda: False)
        assert len(count) == 5
        assert sim.now == 4.5


class TestLink:
    def make(self, bw=1e9, delay=10e-6, qcap=10_000):
        sim = Simulator()
        sink = Sink(sim)
        link = Link(sim, "l", sink, dst_port=3, bandwidth_bps=bw,
                    prop_delay_s=delay, queue_capacity_bytes=qcap)
        return sim, sink, link

    def test_delivery_time_is_serialisation_plus_propagation(self):
        sim, sink, link = self.make()
        pkt = data_packet(size=1460)
        link.send(pkt)
        sim.run()
        assert len(sink.deliveries) == 1
        t, delivered, port = sink.deliveries[0]
        wire = (1460 + HEADER_BYTES) * 8 / 1e9
        assert t == pytest.approx(wire + 10e-6)
        assert delivered is pkt
        assert port == 3

    def test_fifo_order_preserved(self):
        sim, sink, link = self.make()
        pkts = [data_packet(seq=i) for i in range(5)]
        for p in pkts:
            link.send(p)
        sim.run()
        assert [p.seq for _t, p, _pt in sink.deliveries] == [0, 1, 2, 3, 4]

    def test_back_to_back_serialisation(self):
        """Second packet departs one serialisation time after the first."""
        sim, sink, link = self.make()
        link.send(data_packet(seq=0))
        link.send(data_packet(seq=1))
        sim.run()
        t0, t1 = sink.deliveries[0][0], sink.deliveries[1][0]
        wire = (1460 + HEADER_BYTES) * 8 / 1e9
        assert t1 - t0 == pytest.approx(wire)

    def test_drop_tail(self):
        sim, sink, link = self.make(qcap=(1460 + HEADER_BYTES) * 2)
        results = [link.send(data_packet(seq=i)) for i in range(4)]
        # Queue holds 2 wire-sized packets; rest dropped.
        assert results == [True, True, False, False]
        sim.run()
        assert len(sink.deliveries) == 2
        assert link.packets_dropped == 2

    def test_conservation(self):
        """Packets offered = delivered + dropped after the queue drains."""
        sim, sink, link = self.make(qcap=5000)
        offered = 20
        for i in range(offered):
            link.send(data_packet(seq=i))
        sim.run()
        assert len(sink.deliveries) + link.packets_dropped == offered

    def test_queue_depth_visible(self):
        sim, sink, link = self.make()
        link.send(data_packet())
        link.send(data_packet())
        assert link.queued_bytes > 0

    def test_utilization_rises_under_load_and_decays(self):
        """A busy period much longer than the DRE time constant reads ~1."""
        sim, sink, link = self.make(bw=1e9, qcap=500_000)
        for i in range(200):
            link.send(data_packet(seq=i))
        sim.run()
        busy_util = link.metrics.utilization(sim.now - 10e-6)
        assert busy_util > 0.7
        assert link.metrics.utilization(sim.now + 0.1) < 0.01

    def test_loss_rate_reflects_drops(self):
        sim, sink, link = self.make(qcap=3000)
        for i in range(20):
            link.send(data_packet(seq=i))
        assert link.metrics.loss_rate(sim.now) > 0.5

    def test_bad_parameters_rejected(self):
        sim = Simulator()
        sink = Sink(sim)
        with pytest.raises(ConfigurationError):
            Link(sim, "l", sink, 0, bandwidth_bps=0)
        with pytest.raises(ConfigurationError):
            Link(sim, "l", sink, 0, prop_delay_s=-1)
        with pytest.raises(ConfigurationError):
            Link(sim, "l", sink, 0, queue_capacity_bytes=0)

#!/usr/bin/env python3
"""DRILL micro load balancing over switch ports (section 7.2.4, Table 5).

Shows the DRILL policy both ways:

1. **Standalone**, on a single switch with pre-loaded port queues — the
   compiled Thanos pipeline makes the decision: ``d`` random samples
   unioned with the ``m`` best remembered samples, minimum queue wins, and
   the examined set feeds back as next decision's input (the Table 5 chain;
   the policy binds its ``examined`` union to input line 1).
2. **In the fabric**, comparing random / least-queued / DRILL per-packet
   forwarding on the Figure 18 experiment at one load point.

Run:  python examples/drill_port_lb.py   (takes ~1 minute)
"""

from repro.experiments import PortLBExperimentConfig, run_portlb_experiment
from repro.netsim.link import Link
from repro.netsim.packet import NetPacket
from repro.netsim.sim import Simulator
from repro.netsim.switch import NetSwitch
from repro.policies.portlb import DrillPolicy


class _Sink:
    def __init__(self, sim):
        self.sim = sim
        self.name = "sink"

    def receive(self, packet, in_port):
        pass


def standalone_demo() -> None:
    print("=== standalone DRILL decision (compiled Thanos pipeline) ===")
    sim = Simulator()
    switch = NetSwitch(sim, "demo", flowlet_gap_s=None)
    sink = _Sink(sim)
    queue_fill = [9, 3, 0, 6, 2, 8, 1, 5]
    for port, fill in enumerate(queue_fill):
        link = Link(sim, f"p{port}", sink, 0, bandwidth_bps=1e9,
                    queue_capacity_bytes=1_000_000)
        switch.add_port(link)
        for _ in range(fill):
            link.send(NetPacket(1, 0, 1, 0, 1460))
    switch.set_up_ports(list(range(8)))

    drill = DrillPolicy(d=2, m=1)
    print(f"port queue fills (packets): {queue_fill}")
    for i in range(8):
        packet = NetPacket(5, 0, 99, i, 1460)
        port = drill.choose(switch, packet, switch.up_ports)
        print(f"  decision {i}: port {port} "
              f"(queued {switch.queue_bytes(port)} bytes)")


def fabric_demo() -> None:
    print("\n=== Figure 18 at 80% load: random vs least-queue vs DRILL ===")
    results = {}
    for policy in ("policy1", "policy2", "policy3"):
        results[policy] = run_portlb_experiment(
            PortLBExperimentConfig(
                policy=policy, load=0.8, duration_s=0.02, seed=3, d=2, m=1
            )
        )
        label = {"policy1": "random      ", "policy2": "least-queue ",
                 "policy3": "DRILL(2,1)  "}[policy]
        print(f"{label}: mean FCT {results[policy].mean_fct * 1e3:6.2f} ms")
    p1 = results["policy1"].mean_fct
    p3 = results["policy3"].mean_fct
    print(f"\nDRILL vs random: {p1 / p3:.2f}x better (paper: ~1.7x)")


def main() -> None:
    standalone_demo()
    fabric_demo()


if __name__ == "__main__":
    main()

"""Topology builders: the Figure 15 leaf-spine testbed and FatTree fabrics.

:class:`Network` holds hosts, switches, and links, builds the connectivity
graph, and derives forwarding state: destinations with a unique shortest-
path first hop get a deterministic route; destinations reachable over
multiple equal-cost first hops are forwarded by the switch's uplink policy.

Path enumeration (for the path-metric directory) uses :mod:`networkx` over
the same graph.
"""

from __future__ import annotations

import networkx as nx

from repro.errors import ConfigurationError, SimulationError
from repro.netsim.host import Host
from repro.netsim.link import Link
from repro.netsim.sim import Simulator
from repro.netsim.switch import ForwardingPolicy, NetSwitch
from repro.netsim.tracing import FlowRecorder
from repro.netsim.transport import TcpFlow, TcpSender

__all__ = ["Network", "build_leaf_spine", "build_fat_tree"]


class Network:
    """A simulated network: nodes, links, routing state, and flow tracing."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.hosts: dict[int, Host] = {}
        self.switches: dict[str, NetSwitch] = {}
        self.links: dict[tuple[str, str], Link] = {}
        self.graph = nx.DiGraph()
        self.recorder = FlowRecorder()
        self._port_of: dict[tuple[str, str], int] = {}
        self._edge_of_host: dict[int, str] = {}
        self._finalized = False

    # -- construction -----------------------------------------------------------------

    def add_host(self, host_id: int) -> Host:
        if host_id in self.hosts:
            raise ConfigurationError(f"duplicate host id {host_id}")
        host = Host(self.sim, host_id)
        self.hosts[host_id] = host
        self.graph.add_node(host.name, kind="host")
        return host

    def add_switch(
        self,
        name: str,
        policy: ForwardingPolicy | None = None,
        flowlet_gap_s: float | None = 100e-6,
    ) -> NetSwitch:
        if name in self.switches:
            raise ConfigurationError(f"duplicate switch name {name}")
        switch = NetSwitch(self.sim, name, policy, flowlet_gap_s)
        self.switches[name] = switch
        self.graph.add_node(name, kind="switch")
        return switch

    def _node(self, name: str) -> Host | NetSwitch:
        if name in self.switches:
            return self.switches[name]
        for host in self.hosts.values():
            if host.name == name:
                return host
        raise ConfigurationError(f"unknown node {name!r}")

    def connect(
        self,
        a: str,
        b: str,
        bandwidth_bps: float = 10e9,
        prop_delay_s: float = 1e-6,
        queue_capacity_bytes: int = 150_000,
        metrics_tau_s: float = 500e-6,
    ) -> None:
        """Create the two unidirectional links of a full-duplex cable."""
        node_a, node_b = self._node(a), self._node(b)
        for src, dst in ((node_a, node_b), (node_b, node_a)):
            # The destination's ingress port id: for switches, the port the
            # reverse link occupies; hosts have a single implicit port.
            in_port = 0
            link = Link(
                self.sim, f"{src.name}->{dst.name}", dst, in_port,
                bandwidth_bps, prop_delay_s, queue_capacity_bytes,
                metrics_tau_s,
            )
            self.links[(src.name, dst.name)] = link
            self.graph.add_edge(src.name, dst.name)
            if isinstance(src, NetSwitch):
                port = src.add_port(link)
                self._port_of[(src.name, dst.name)] = port
            else:
                src.attach_uplink(link)
        if isinstance(node_a, Host) and isinstance(node_b, NetSwitch):
            self._edge_of_host[node_a.host_id] = node_b.name
        if isinstance(node_b, Host) and isinstance(node_a, NetSwitch):
            self._edge_of_host[node_b.host_id] = node_a.name

    def port_between(self, switch_name: str, neighbor_name: str) -> int:
        """The egress port of ``switch_name`` facing ``neighbor_name``."""
        try:
            return self._port_of[(switch_name, neighbor_name)]
        except KeyError:
            raise ConfigurationError(
                f"no link {switch_name} -> {neighbor_name}"
            ) from None

    def link_between(self, a: str, b: str) -> Link:
        try:
            return self.links[(a, b)]
        except KeyError:
            raise ConfigurationError(f"no link {a} -> {b}") from None

    def edge_of(self, host_id: int) -> str:
        """The edge switch a host hangs off."""
        try:
            return self._edge_of_host[host_id]
        except KeyError:
            raise ConfigurationError(f"host {host_id} has no edge switch") from None

    # -- routing ----------------------------------------------------------------------

    def finalize_routes(self) -> None:
        """Derive deterministic routes and uplink candidate sets.

        For every (switch, host): if all shortest paths share one first hop,
        install it as the deterministic route; otherwise the first-hop ports
        join the switch's uplink candidate set.
        """
        for switch in self.switches.values():
            up_ports: set[int] = set()
            for host in self.hosts.values():
                try:
                    paths = list(
                        nx.all_shortest_paths(self.graph, switch.name, host.name)
                    )
                except nx.NetworkXNoPath:
                    continue
                first_hops = {path[1] for path in paths}
                ports = {self.port_between(switch.name, hop) for hop in first_hops}
                if len(ports) == 1:
                    switch.set_down_route(host.host_id, next(iter(ports)))
                else:
                    up_ports |= ports
            switch.set_up_ports(sorted(up_ports))
        self._finalized = True

    def paths_between(self, switch_name: str, dst_edge: str) -> list[list[str]]:
        """All shortest node-paths from a switch to a destination edge switch."""
        if switch_name == dst_edge:
            return [[switch_name]]
        return list(nx.all_shortest_paths(self.graph, switch_name, dst_edge))

    # -- flows --------------------------------------------------------------------------

    def start_flow(self, flow: TcpFlow) -> TcpSender:
        if not self._finalized:
            raise SimulationError("finalize_routes() must run before traffic")
        if flow.dst not in self.hosts:
            raise ConfigurationError(f"unknown destination host {flow.dst}")
        self.recorder.on_start(flow)
        return self.hosts[flow.src].start_flow(flow, self.recorder.on_complete)

    # -- aggregate stats --------------------------------------------------------------------

    def total_drops(self) -> int:
        return sum(link.packets_dropped for link in self.links.values())

    def idle(self) -> bool:
        """No packet is queued or on the wire: every packet a link sent has
        reached its next node (a corrupted one is dropped, never sent)."""
        sent = 0
        for link in self.links.values():
            if link.queued_packets:
                return False
            sent += link.packets_sent
        arrived = sum(h.packets_received for h in self.hosts.values())
        return sent == arrived + sum(s.packets_forwarded
                                     for s in self.switches.values())


def build_leaf_spine(
    sim: Simulator,
    n_leaf: int = 4,
    n_spine: int = 2,
    hosts_per_leaf: int = 2,
    bandwidth_bps: float = 10e9,
    prop_delay_s: float = 1e-6,
    queue_capacity_bytes: int = 150_000,
    policy_factory=None,
    flowlet_gap_s: float | None = 100e-6,
    metrics_tau_s: float = 500e-6,
) -> Network:
    """The Figure 15 shape: leaves below, spines above, hosts on leaves.

    Defaults (4 leaves, 2 spines, 8 hosts) reproduce the paper's testbed
    exactly; larger values are used by the simulation benches.
    """
    net = Network(sim)
    for s in range(n_spine):
        policy = policy_factory(net) if policy_factory else None
        net.add_switch(f"spine{s}", policy, flowlet_gap_s)
    for l in range(n_leaf):
        policy = policy_factory(net) if policy_factory else None
        net.add_switch(f"leaf{l}", policy, flowlet_gap_s)
    host_id = 0
    for l in range(n_leaf):
        for _ in range(hosts_per_leaf):
            net.add_host(host_id)
            net.connect(
                f"host{host_id}", f"leaf{l}",
                bandwidth_bps, prop_delay_s, queue_capacity_bytes,
                metrics_tau_s,
            )
            host_id += 1
    for l in range(n_leaf):
        for s in range(n_spine):
            net.connect(
                f"leaf{l}", f"spine{s}",
                bandwidth_bps, prop_delay_s, queue_capacity_bytes,
                metrics_tau_s,
            )
    net.finalize_routes()
    return net


def build_fat_tree(
    sim: Simulator,
    k: int = 4,
    bandwidth_bps: float = 10e9,
    prop_delay_s: float = 1e-6,
    queue_capacity_bytes: int = 150_000,
    policy_factory=None,
    flowlet_gap_s: float | None = 100e-6,
    metrics_tau_s: float = 500e-6,
) -> Network:
    """A k-ary FatTree: k pods, (k/2)^2 cores, k^3/4 hosts."""
    if k < 2 or k % 2:
        raise ConfigurationError(f"FatTree k must be even and >= 2, got {k}")
    net = Network(sim)
    half = k // 2

    def make_switch(name):
        policy = policy_factory(net) if policy_factory else None
        return net.add_switch(name, policy, flowlet_gap_s)

    for c in range(half * half):
        make_switch(f"core{c}")
    for pod in range(k):
        for a in range(half):
            make_switch(f"agg{pod}_{a}")
        for e in range(half):
            make_switch(f"edge{pod}_{e}")
    host_id = 0
    for pod in range(k):
        for e in range(half):
            for _ in range(half):
                net.add_host(host_id)
                net.connect(
                    f"host{host_id}", f"edge{pod}_{e}",
                    bandwidth_bps, prop_delay_s, queue_capacity_bytes,
                    metrics_tau_s,
                )
                host_id += 1
            for a in range(half):
                net.connect(
                    f"edge{pod}_{e}", f"agg{pod}_{a}",
                    bandwidth_bps, prop_delay_s, queue_capacity_bytes,
                    metrics_tau_s,
                )
        for a in range(half):
            for i in range(half):
                core_index = a * half + i
                net.connect(
                    f"agg{pod}_{a}", f"core{core_index}",
                    bandwidth_bps, prop_delay_s, queue_capacity_bytes,
                    metrics_tau_s,
                )
    net.finalize_routes()
    return net

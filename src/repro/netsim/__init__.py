"""Packet-level discrete-event network simulator.

This is the substrate for the paper's performance evaluation (section 7.2):
the FPGA leaf-spine testbed of Figure 15 and the ~450-host FatTree simulator
are both replaced by this package (the paper itself uses a packet-level
simulator for its larger experiments).

Components:

* :mod:`~repro.netsim.sim` — the event loop;
* :mod:`~repro.netsim.packet` — lightweight simulation packets;
* :mod:`~repro.netsim.link` — links with drop-tail egress queues,
  serialisation and propagation delay, and per-link metric tracking
  (utilisation EWMA, loss counts, queue occupancy);
* :mod:`~repro.netsim.transport` — a simplified TCP (slow start, AIMD,
  fast retransmit, RTO);
* :mod:`~repro.netsim.host` / :mod:`~repro.netsim.switch` — end hosts and
  switches with pluggable forwarding policies and flowlet support;
* :mod:`~repro.netsim.topology` — the Figure 15 leaf-spine and FatTree
  builders, with path enumeration;
* :mod:`~repro.netsim.probes` — periodic distribution of path metrics to
  switch resource tables (the probe-packet mechanism of section 3, modelled
  as periodic metric snapshots with a configurable staleness period);
* :mod:`~repro.netsim.tracing` — flow completion time recording.
"""

from repro.netsim.sim import Simulator
from repro.netsim.packet import NetPacket
from repro.netsim.link import Link, LinkMetrics
from repro.netsim.transport import TcpFlow, TcpSender, TcpReceiver
from repro.netsim.host import Host
from repro.netsim.switch import NetSwitch, ForwardingPolicy
from repro.netsim.topology import Network, build_leaf_spine, build_fat_tree
from repro.netsim.probes import PathMetricsDirectory, ProbeService
from repro.netsim.tracing import FlowRecorder, FlowRecord

__all__ = [
    "Simulator",
    "NetPacket",
    "Link",
    "LinkMetrics",
    "TcpFlow",
    "TcpSender",
    "TcpReceiver",
    "Host",
    "NetSwitch",
    "ForwardingPolicy",
    "Network",
    "build_leaf_spine",
    "build_fat_tree",
    "PathMetricsDirectory",
    "ProbeService",
    "FlowRecorder",
    "FlowRecord",
]

"""Stateful L4 load balancing over end servers (section 7.2.2).

Two spine-switch policies over the server resource table
``(cpu, mem, bw)`` — cpu utilisation percent, available memory MB, available
bandwidth Mbps, refreshed by server probes:

* **Policy 1** — select a server uniformly at random (what production L4
  load balancers do);
* **Policy 2** — select uniformly at random among servers with
  ``cpu < X and mem > Y and bw > Z``; if that set is empty, fall back to
  Policy 1.  (The Figure 14 worked example.)

Connection affinity is provided by a SilkRoad-style exact-match connection
table: once a flow is mapped to a server, later packets of the flow stick to
it regardless of policy output.
"""

from __future__ import annotations

from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Conditional,
    Policy,
    TableRef,
    intersection,
    predicate,
    random_pick,
)
from repro.errors import CapacityError, ConfigurationError
from repro.switch.filter_module import FilterModule

__all__ = ["ConnectionTable", "L4LoadBalancer", "l4lb_policy_ast"]

#: The paper's thresholds: X=70% cpu, Y=1 GB memory, Z=2 Gbps bandwidth.
DEFAULT_CPU_LIMIT = 70
DEFAULT_MEM_FLOOR_MB = 1024
DEFAULT_BW_FLOOR_MBPS = 2000

SERVER_METRICS = ("cpu", "mem", "bw")


class ConnectionTable:
    """A SilkRoad-style exact-match table: flow id -> server id.

    Models the single key-value table the paper implemented ("we did not
    implement advanced SilkRoad functionalities").
    """

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ConfigurationError("connection table capacity must be positive")
        self._capacity = capacity
        self._entries: dict[int, int] = {}
        self.hits = 0
        self.inserts = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, flow_id: int) -> int | None:
        server = self._entries.get(flow_id)
        if server is not None:
            self.hits += 1
        return server

    def insert(self, flow_id: int, server: int) -> None:
        if flow_id in self._entries:
            raise ConfigurationError(f"flow {flow_id} already mapped")
        if len(self._entries) >= self._capacity:
            raise CapacityError("connection table full")
        self._entries[flow_id] = server
        self.inserts += 1

    def remove(self, flow_id: int) -> None:
        self._entries.pop(flow_id, None)

    def drop_server(self, server: int) -> list[int]:
        """Remove every flow pinned to ``server`` (its connections died
        with it); returns the dropped flow ids so they can be remapped."""
        dropped = [f for f, s in self._entries.items() if s == server]
        for flow_id in dropped:
            del self._entries[flow_id]
        return dropped


def l4lb_policy_ast(
    which: int,
    cpu_limit: int = DEFAULT_CPU_LIMIT,
    mem_floor: int = DEFAULT_MEM_FLOOR_MB,
    bw_floor: int = DEFAULT_BW_FLOOR_MBPS,
) -> Policy:
    """Policy 1 or Policy 2 of section 7.2.2 as an AST."""
    if which == 1:
        return Policy(random_pick(TableRef()), name="l4lb-policy1")
    if which == 2:
        servers = TableRef()
        eligible = intersection(
            intersection(
                predicate(servers, "cpu", "<", cpu_limit),
                predicate(servers, "mem", ">", mem_floor),
            ),
            predicate(servers, "bw", ">", bw_floor),
        )
        return Policy(
            Conditional(random_pick(eligible), random_pick(TableRef())),
            name="l4lb-policy2",
        )
    raise ConfigurationError(f"unknown L4 LB policy {which}; expected 1 or 2")


class L4LoadBalancer:
    """The spine-switch load balancer: filter module + connection table."""

    def __init__(
        self,
        n_servers: int,
        which_policy: int,
        *,
        cpu_limit: int = DEFAULT_CPU_LIMIT,
        mem_floor: int = DEFAULT_MEM_FLOOR_MB,
        bw_floor: int = DEFAULT_BW_FLOOR_MBPS,
        params: PipelineParams | None = None,
        lfsr_seed: int = 1,
    ):
        if n_servers < 1:
            raise ConfigurationError("need at least one server")
        self._module = FilterModule(
            capacity=max(n_servers, 2),
            metric_names=SERVER_METRICS,
            policy=l4lb_policy_ast(which_policy, cpu_limit, mem_floor, bw_floor),
            params=params or PipelineParams(n=4, k=3, f=2, chain_length=2),
            lfsr_seed=lfsr_seed,
        )
        self._n_servers = n_servers
        self._live = set(range(n_servers))
        self.connections = ConnectionTable()
        self.fallback_assignments = 0
        self.evictions = 0

    @property
    def module(self) -> FilterModule:
        return self._module

    def on_probe(self, server: int, metrics: dict[str, int]) -> None:
        """A server probe: refresh its row in the resource table.

        A probe answered by an evicted server readmits it — the probe *is*
        the liveness signal, so hearing one means the server is back.
        """
        if not 0 <= server < self._n_servers:
            raise ConfigurationError(f"unknown server {server}")
        self._live.add(server)
        self._module.update_resource(server, metrics)

    def evict_server(self, server: int) -> list[int]:
        """Take a dead server out of rotation.

        Its resource row is deleted (the filter can no longer pick it), it
        leaves the fallback live set, and its connection-affinity entries
        are dropped so those flows remap on their next packet.  Returns the
        flow ids that lost their pinning.
        """
        if not 0 <= server < self._n_servers:
            raise ConfigurationError(f"unknown server {server}")
        self._live.discard(server)
        self._module.remove_resource(server)
        self.evictions += 1
        return self.connections.drop_server(server)

    def assign(self, flow_id: int) -> int:
        """Map a flow to a server (stable across the flow's lifetime)."""
        existing = self.connections.lookup(flow_id)
        if existing is not None:
            return existing
        server = self._module.select()
        if server is None or server >= self._n_servers or server not in self._live:
            # No resource data yet (or a non-singleton output): spread
            # deterministically over the live set, as a hash-based LB would.
            live = sorted(self._live) or list(range(self._n_servers))
            server = live[flow_id % len(live)]
            self.fallback_assignments += 1
        self.connections.insert(flow_id, server)
        return server

    def release(self, flow_id: int) -> None:
        self.connections.remove(flow_id)

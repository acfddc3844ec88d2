"""Performance-aware routing policies (section 7.2.3).

Three uplink-selection policies for leaf/edge switches:

* **Policy 1** — select a path uniformly at random (what ECMP achieves);
* **Policy 2** — select the path with least utilisation (CONGA-style);
* **Policy 3** — filter paths simultaneously among the top-X least queued,
  top-X least lossy, and top-X least utilised, then pick the least utilised
  of the filtered set, falling back to Policy 2 when the intersection is
  empty.  This is the policy "which cannot be implemented on existing
  programmable switches" — it needs Thanos's chained K-UFPU intersections.

:class:`ThanosRoutingPolicy` runs any of the three through a real compiled
filter pipeline: one :class:`~repro.switch.filter_module.FilterModule` per
(switch, destination edge), whose SMBM holds one resource per candidate
uplink port with the ``(util, queue, loss)`` path metrics, refreshed by the
probe service.
"""

from __future__ import annotations

import random

from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Conditional,
    Policy,
    TableRef,
    intersection,
    min_of,
    random_pick,
)
from repro.errors import ConfigurationError
from repro.netsim.packet import NetPacket
from repro.netsim.probes import PATH_METRIC_NAMES, PathMetricsDirectory, ProbeService
from repro.netsim.switch import NetSwitch
from repro.netsim.topology import Network
from repro.switch.filter_module import FilterModule

__all__ = ["RandomUplinkPolicy", "routing_policy_ast", "ThanosRoutingPolicy"]


class RandomUplinkPolicy:
    """Policy 1 without any hardware: uniform random uplink (baseline)."""

    def __init__(self, rng: random.Random):
        self._rng = rng

    def choose(self, switch: NetSwitch, packet: NetPacket,
               candidates: list[int]) -> int:
        return self._rng.choice(candidates)


def routing_policy_ast(name: str, top_x: int = 5) -> Policy:
    """The section 7.2.3 policy ASTs over the (util, queue, loss) schema."""
    table = TableRef()
    if name == "policy1":
        return Policy(random_pick(table), name="routing-random")
    if name == "policy2":
        return Policy(min_of(table, "util"), name="routing-least-util")
    if name == "policy3":
        if top_x < 1:
            raise ConfigurationError(f"top-X must be >= 1, got {top_x}")
        eligible = intersection(
            intersection(
                min_of(table, "queue", k=top_x),
                min_of(table, "loss", k=top_x),
            ),
            min_of(table, "util", k=top_x),
        )
        return Policy(
            Conditional(min_of(eligible, "util"), min_of(TableRef(), "util")),
            name="routing-multi-metric",
        )
    raise ConfigurationError(
        f"unknown routing policy {name!r}; expected policy1/policy2/policy3"
    )


class ThanosRoutingPolicy:
    """Uplink selection through compiled Thanos filter pipelines.

    Resources are candidate uplink ports, identified inside the SMBM by
    their index within the switch's ``up_ports`` list.  Path metrics are
    refreshed by the probe service at its period — routing decisions between
    refreshes act on stale state, exactly as with real probe packets.
    """

    def __init__(
        self,
        network: Network,
        directory: PathMetricsDirectory,
        probe_service: ProbeService,
        policy_name: str,
        *,
        top_x: int = 5,
        params: PipelineParams | None = None,
        rng: random.Random | None = None,
    ):
        self._network = network
        self._directory = directory
        self._policy_name = policy_name
        self._top_x = top_x
        self._params = params or PipelineParams(n=8, k=4, f=2, chain_length=8)
        self._rng = rng or random.Random(0)
        self._modules: dict[tuple[str, str], FilterModule] = {}
        self._seed = 1
        probe_service.register(self.refresh)

    # -- module management ---------------------------------------------------------

    def _policy(self, n_candidates: int) -> Policy:
        # Clamp top-X to the candidate count so small fabrics stay sane.
        return routing_policy_ast(
            self._policy_name, top_x=min(self._top_x, n_candidates)
        )

    def _module_for(self, switch: NetSwitch, dst_edge: str) -> FilterModule:
        key = (switch.name, dst_edge)
        module = self._modules.get(key)
        if module is None:
            n = len(switch.up_ports)
            module = FilterModule(
                capacity=max(n, 2),
                metric_names=PATH_METRIC_NAMES,
                policy=self._policy(n),
                params=self._params,
                lfsr_seed=self._seed,
            )
            self._seed += 97
            self._modules[key] = module
            self._refresh_module(switch, dst_edge, module, self._network.sim.now)
        return module

    def _refresh_module(
        self, switch: NetSwitch, dst_edge: str, module: FilterModule, now: float
    ) -> None:
        metrics = self._directory.port_metrics(switch.name, dst_edge, now)
        port_to_index = {port: i for i, port in enumerate(switch.up_ports)}
        for pm in metrics:
            index = port_to_index.get(pm.port)
            if index is None:
                continue  # a down-route port; not a candidate resource
            module.update_resource(index, pm.as_smbm_metrics())

    def refresh(self, now: float) -> None:
        """Probe tick: push fresh path metrics into every module's SMBM."""
        for (switch_name, dst_edge), module in self._modules.items():
            switch = self._network.switches[switch_name]
            self._refresh_module(switch, dst_edge, module, now)

    # -- the ForwardingPolicy interface ------------------------------------------------

    def choose(self, switch: NetSwitch, packet: NetPacket,
               candidates: list[int]) -> int:
        dst_edge = self._network.edge_of(packet.dst)
        module = self._module_for(switch, dst_edge)
        selected = module.select()
        if selected is None or selected >= len(switch.up_ports):
            return self._rng.choice(candidates)
        return switch.up_ports[selected]

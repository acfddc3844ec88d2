"""Path metrics and their periodic distribution (the probe mechanism).

Section 3: remote metrics reach switches in probe packets; each switch
"periodically generates the queuing, loss rate, and utilization metrics for
its links and sends it to all the leaf switches" (section 7.2.3).

:class:`PathMetricsDirectory` enumerates, for a (switch, destination edge)
pair, the equal-cost paths grouped by first-hop port, and computes each
port's path metrics from the live link estimators: a path's metric is the
*worst link* on it (max), and a port's metric is its *best path* (min).

:class:`ProbeService` is the staleness model: every ``period_s`` it invokes
the registered refresh callbacks, which copy the live metrics into the
policies' SMBM resource tables — exactly what a burst of probe packets
achieves on the real switch, with the same update granularity.  (We do not
serialise the probe packets through the fabric themselves; the byte-level
probe path is modelled and tested in :mod:`repro.rmt.probe` /
:mod:`repro.switch`.  The behavioural effect probes have on routing — RTT-
scale staleness of the metric tables — is captured by the period.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.netsim.sim import Simulator
from repro.netsim.topology import Network

__all__ = ["PathMetrics", "PathMetricsDirectory", "ProbeService"]

#: Fixed-point scale for utilisation and loss when stored in integer SMBMs.
UTIL_SCALE = 1000
LOSS_SCALE = 10_000


@dataclass(frozen=True)
class PathMetrics:
    """Aggregated metrics of the best path behind one first-hop port."""

    port: int
    util: float   # [0, ~1]
    queue_bytes: int
    loss: float   # [0, 1]

    def as_smbm_metrics(self) -> dict[str, int]:
        """Integer encoding for the SMBM (util/loss in fixed point)."""
        return {
            "util": int(self.util * UTIL_SCALE),
            "queue": int(self.queue_bytes),
            "loss": int(self.loss * LOSS_SCALE),
        }


#: The metric schema every routing SMBM uses.
PATH_METRIC_NAMES = ("util", "queue", "loss")


class PathMetricsDirectory:
    """Computes per-port path metrics over the live link estimators."""

    def __init__(self, network: Network):
        self._network = network
        # (switch, dst_edge) -> list of (port, [link, link, ...]) per path.
        self._path_cache: dict[tuple[str, str], list[tuple[int, list]]] = {}

    def _paths(self, switch_name: str, dst_edge: str) -> list[tuple[int, list]]:
        key = (switch_name, dst_edge)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        paths = []
        for node_path in self._network.paths_between(switch_name, dst_edge):
            if len(node_path) < 2:
                continue
            port = self._network.port_between(switch_name, node_path[1])
            links = [
                self._network.link_between(a, b)
                for a, b in zip(node_path, node_path[1:])
            ]
            paths.append((port, links))
        if not paths:
            raise ConfigurationError(
                f"no paths from {switch_name} to {dst_edge}"
            )
        self._path_cache[key] = paths
        return paths

    def port_metrics(
        self, switch_name: str, dst_edge: str, now: float
    ) -> list[PathMetrics]:
        """One PathMetrics per candidate first-hop port, best path per port."""
        per_port: dict[int, PathMetrics] = {}
        for port, links in self._paths(switch_name, dst_edge):
            util = max(link.metrics.utilization(now) for link in links)
            queue = max(link.queued_bytes for link in links)
            loss = max(link.metrics.loss_rate(now) for link in links)
            candidate = PathMetrics(port, util, queue, loss)
            best = per_port.get(port)
            if best is None or (candidate.util, candidate.queue_bytes, candidate.loss) < (
                best.util, best.queue_bytes, best.loss
            ):
                per_port[port] = candidate
        return [per_port[p] for p in sorted(per_port)]


class ProbeService:
    """Periodic metric distribution: the staleness clock of the system."""

    def __init__(self, sim: Simulator, period_s: float = 100e-6):
        if period_s <= 0:
            raise ConfigurationError(f"probe period must be positive: {period_s}")
        self._sim = sim
        self._period = period_s
        self._callbacks: list[Callable[[float], None]] = []
        self._running = False
        self.ticks = 0

    @property
    def period_s(self) -> float:
        return self._period

    def register(self, callback: Callable[[float], None]) -> None:
        """Add a refresh callback; it runs once immediately on registration
        (the initial probe burst) and then once per period."""
        self._callbacks.append(callback)
        callback(self._sim.now)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._sim.schedule(self._period, self._tick)

    def _tick(self) -> None:
        self.ticks += 1
        now = self._sim.now
        for callback in self._callbacks:
            callback(now)
        self._sim.schedule(self._period, self._tick)

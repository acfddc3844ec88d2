"""Flow tracing: completion times and summary statistics."""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import SimulationError
from repro.netsim.transport import TcpFlow

__all__ = ["FlowRecord", "FlowRecorder"]


@dataclass(frozen=True)
class FlowRecord:
    """One completed flow: its definition and completion time."""

    flow: TcpFlow
    finished_at: float

    @property
    def fct(self) -> float:
        """Flow completion time in seconds."""
        return self.finished_at - self.flow.start_time


class FlowRecorder:
    """Collects flow lifecycles and computes FCT statistics."""

    def __init__(self) -> None:
        self._started: dict[int, TcpFlow] = {}
        self._records: list[FlowRecord] = []
        self.finished = 0  # flows completed: a plain int, polled per event
        # Flow completions are rare events, so the FCT histogram is fed
        # directly (a no-op against the default null registry).
        registry = obs.get_registry()
        self._obs_fct_us = registry.histogram(
            "netsim_fct_us",
            help="flow completion times (microseconds, pow2 buckets)",
        )
        if registry.enabled:
            registry.add_hook(self._obs_collect)

    def _obs_collect(self):
        """Collect hook: flow lifecycle counters."""
        yield obs.Sample("netsim_flows_completed_total", len(self._records),
                         help="flows that finished")
        yield obs.Sample("netsim_flows_in_flight", len(self._started),
                         kind="gauge", help="flows started but not finished")

    def on_start(self, flow: TcpFlow) -> None:
        if flow.flow_id in self._started:
            raise SimulationError(f"flow {flow.flow_id} started twice")
        self._started[flow.flow_id] = flow

    def on_complete(self, flow: TcpFlow, finished_at: float) -> None:
        if flow.flow_id not in self._started:
            raise SimulationError(f"flow {flow.flow_id} completed without starting")
        del self._started[flow.flow_id]
        record = FlowRecord(flow, finished_at)
        self._records.append(record)
        self.finished += 1
        self._obs_fct_us.observe(record.fct * 1e6)

    @property
    def completed(self) -> list[FlowRecord]:
        return list(self._records)

    @property
    def in_flight(self) -> int:
        return len(self._started)

    def fcts(self) -> list[float]:
        return [r.fct for r in self._records]

    def mean_fct(self) -> float:
        fcts = self.fcts()
        if not fcts:
            raise SimulationError("no completed flows to average")
        return sum(fcts) / len(fcts)

    def percentile_fct(self, p: float) -> float:
        """FCT percentile (p in [0, 100]) by nearest-rank."""
        fcts = sorted(self.fcts())
        if not fcts:
            raise SimulationError("no completed flows")
        if not 0 <= p <= 100:
            raise SimulationError(f"percentile out of range: {p}")
        rank = min(len(fcts) - 1, max(0, int(round(p / 100 * (len(fcts) - 1)))))
        return fcts[rank]

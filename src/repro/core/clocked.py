"""The one clocked primitive of the hardware model.

The cycle-accurate behaviour the paper claims for its units (SMBM writes,
UFPU, BFPU, the filter pipeline) follows the discipline of the System
Verilog they stand in for: state changes only at clock edges, and fully
pipelined units accept a new request every cycle while completing each
request a fixed number of cycles later.

:class:`PipelineLatch` models that fixed-latency, one-issue-per-cycle
behaviour: requests pushed at cycle ``t`` emerge at cycle ``t + latency``.
A unit's latency is checked by latching its functional ``evaluate`` result
(computed against the table visible at issue time) in a latch of the
unit's latency; :class:`~repro.core.smbm.ClockedSMBM` is the one wrapper
with its own behaviour on retire (the write commits then).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generic, TypeVar

from repro.errors import SimulationError

__all__ = ["PipelineLatch"]

T = TypeVar("T")


class PipelineLatch(Generic[T]):
    """A fixed-latency, fully pipelined stage.

    One item may be issued per cycle; each item retires exactly ``latency``
    ticks after it was issued.  This captures the paper's repeated claim
    "the design is fully pipelined and can serve a new request every clock
    cycle" with a deterministic per-request latency.
    """

    def __init__(self, latency: int):
        if latency < 1:
            raise SimulationError(f"latency must be >= 1 cycle, got {latency}")
        self._latency = latency
        # Each slot holds the item that will retire after that many more ticks.
        self._stages: deque[Any] = deque([None] * latency, maxlen=latency)
        self._issued_this_cycle = False

    @property
    def latency(self) -> int:
        return self._latency

    def issue(self, item: T) -> None:
        """Present a new item at the pipeline input for this cycle."""
        if self._issued_this_cycle:
            raise SimulationError("at most one issue per clock cycle")
        self._stages[-1] = item  # placed at the input stage; shifts on tick
        self._issued_this_cycle = True

    def tick(self) -> T | None:
        """Clock edge: shift the pipeline, returning the retiring item."""
        retired = self._stages.popleft()
        self._stages.append(None)
        self._issued_this_cycle = False
        return retired

    def occupancy(self) -> int:
        """Number of in-flight items."""
        return sum(1 for slot in self._stages if slot is not None)

"""The discrete-event loop.

A classic calendar: events are (time, sequence, callback) triples on a heap.
The sequence number makes event ordering deterministic for equal timestamps
(FIFO), which keeps every simulation fully reproducible for a given seed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.errors import SimulationError

__all__ = ["Simulator"]


class Simulator:
    """A discrete-event simulator with seconds as the time unit."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        heapq.heappush(self._queue, (self._now + delay, next(self._seq), callback))

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute time ``time``."""
        self.schedule(time - self._now, callback)

    def run(self, until: float | None = None,
            stop: Callable[[], bool] | None = None) -> None:
        """Drain the event queue; return early once the next event lies past
        ``until`` (the clock then reads ``until``) or right after the first
        event on which ``stop()`` holds (the clock reads that event's time)."""
        queue, pop = self._queue, heapq.heappop
        while queue:
            time, _seq, callback = queue[0]
            if until is not None and time > until:
                self._now = until
                return
            pop(queue)
            if time < self._now:
                raise SimulationError("event queue went backwards in time")
            self._now = time
            callback()
            if stop is not None and stop():
                return
        if until is not None:
            self._now = max(self._now, until)

    def pending(self) -> int:
        """Number of scheduled events not yet run."""
        return len(self._queue)

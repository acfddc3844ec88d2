"""Per-tenant control-plane circuit breaker.

One breaker guards one tenant's control stream.  It is the controller's
fail-fast valve: a tenant whose ops keep failing stops consuming queue
slots, WAL bytes, and retry budget — its submits are rejected at the
door with :class:`~repro.errors.CircuitOpen` until a cooldown elapses,
while every *other* tenant's control stream (and the whole data path)
keeps running.

Classic three-state machine:

* **CLOSED** — ops flow; ``failure_threshold`` *consecutive* fault-class
  failures trip it OPEN (successes reset the count);
* **OPEN** — submits fail fast with :class:`CircuitOpen` (nothing is
  queued, logged, or applied) until ``reset_timeout_s`` of the injected
  ``clock`` elapses, then the next check transitions to HALF_OPEN;
* **HALF_OPEN** — exactly one probe op is admitted: success re-closes
  the breaker, failure re-opens it for another full cooldown.

Only :class:`~repro.errors.FaultError` failures count — configuration
errors are caller bugs, not tenant health, and must never wedge a
tenant's control plane shut.

The current state is exported as ``circuit_state{tenant}`` (0 closed,
1 half-open, 2 open) so dashboards can see which tenants are tripped.
The ``clock`` is injectable (defaults to :func:`time.monotonic`) so
cooldown transitions are deterministic under test.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

from repro import obs
from repro.errors import CircuitOpen, ConfigurationError

__all__ = ["BreakerState", "CircuitBreaker", "CircuitBreakerConfig"]


class BreakerState:
    """The three breaker states and their ``circuit_state`` encoding."""

    CLOSED = "closed"
    HALF_OPEN = "half_open"
    OPEN = "open"

    #: Gauge encoding: higher is less available.
    ENCODING = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


@dataclass(frozen=True)
class CircuitBreakerConfig:
    """Thresholds shared by every tenant breaker a controller creates."""

    #: Consecutive fault-class failures that trip CLOSED -> OPEN.
    failure_threshold: int = 3
    #: Seconds an OPEN breaker rejects before probing (HALF_OPEN).
    reset_timeout_s: float = 0.05
    #: Injectable monotonic clock for deterministic cooldown tests.
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, "
                f"got {self.failure_threshold}"
            )
        if self.reset_timeout_s < 0:
            raise ConfigurationError(
                f"reset_timeout_s must be >= 0, got {self.reset_timeout_s}"
            )


class CircuitBreaker:
    """One tenant's breaker; the controller holds one per tenant."""

    def __init__(self, tenant: str, config: CircuitBreakerConfig):
        self.tenant = tenant
        self.config = config
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._gauge = obs.get_registry().gauge(
            "circuit_state", {"tenant": tenant},
            help="per-tenant control-plane breaker "
                 "(0 closed, 1 half-open, 2 open)",
        )
        self._gauge.set(0)

    @property
    def state(self) -> str:
        return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._consecutive_failures

    def _transition(self, state: str) -> None:
        self._state = state
        self._gauge.set(BreakerState.ENCODING[state])

    # -- the three verbs the controller uses -------------------------------------------

    def check(self) -> None:
        """Gate one submit: raise :class:`CircuitOpen` or admit it.

        An OPEN breaker whose cooldown has elapsed transitions to
        HALF_OPEN and admits exactly this op as the probe.
        """
        if self._state == BreakerState.OPEN:
            elapsed = self.config.clock() - self._opened_at
            if elapsed < self.config.reset_timeout_s:
                raise CircuitOpen(
                    f"circuit for tenant {self.tenant!r} is open "
                    f"({self._consecutive_failures} consecutive failures; "
                    f"retry in "
                    f"{self.config.reset_timeout_s - elapsed:.3f}s)",
                    tenant=self.tenant,
                    failures=self._consecutive_failures,
                )
            self._transition(BreakerState.HALF_OPEN)

    def record_success(self) -> None:
        """An admitted op applied cleanly: re-close, reset the count."""
        self._consecutive_failures = 0
        if self._state != BreakerState.CLOSED:
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        """An admitted op failed with a fault-class error."""
        self._consecutive_failures += 1
        if self._state == BreakerState.HALF_OPEN:
            # The probe failed: another full cooldown.
            self._opened_at = self.config.clock()
            self._transition(BreakerState.OPEN)
        elif (self._state == BreakerState.CLOSED
              and self._consecutive_failures
              >= self.config.failure_threshold):
            self._opened_at = self.config.clock()
            self._transition(BreakerState.OPEN)

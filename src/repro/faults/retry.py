"""Probe retry with exponential backoff.

Probe-driven table updates cross a lossy network: a probe can be dropped, a
server can be slow or dead.  The cluster's probe loop retries with
exponential backoff and gives up after a bounded budget, raising
:class:`~repro.errors.RetryExhausted` with structured context so the caller
can evict the resource and redistribute its load.

:meth:`RetryPolicy.delay_s` is pure schedule arithmetic: event-driven
callers (the netsim cluster) schedule their own timeout events.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff: attempt ``i`` (0-based) waits
    ``min(base_delay_s * multiplier**i, max_delay_s)`` before retrying."""

    max_attempts: int = 3
    base_delay_s: float = 0.001
    multiplier: float = 2.0
    max_delay_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigurationError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
        return min(self.base_delay_s * self.multiplier ** attempt,
                   self.max_delay_s)

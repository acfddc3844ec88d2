"""Binary Filter Processing Unit (section 5.2.2).

A BFPU merges two tables — encoded as bit vectors, held as raw id-mask
ints — in **one clock cycle**.  Because tables are bit vectors, the set
operators reduce to bitwise logic:

* ``union``        → ``a OR b``
* ``intersection`` → ``a AND b``
* ``difference``   → ``a AND NOT b``
* ``no-op``        → a 2:1 mux selected by the compile-time ``choice`` bit.

The 1-cycle latency is :data:`BFPU_LATENCY_CYCLES`; the cycle-accurate
tests latch ``evaluate`` in a :class:`~repro.core.clocked.PipelineLatch` of
that latency.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

from repro.core.operators import BinaryOp
from repro.errors import ConfigurationError

__all__ = ["BinaryConfig", "BFPU", "BFPU_LATENCY_CYCLES"]

#: Processing latency of a BFPU (section 5.2.2).
BFPU_LATENCY_CYCLES = 1


@dataclass(frozen=True)
class BinaryConfig:
    """Compile-time configuration of one BFPU.

    ``choice`` selects the passthrough input for the ``no-op`` opcode
    (0 → first input, 1 → second input) and must be ``None`` otherwise.
    """

    opcode: BinaryOp
    choice: int | None = None

    def __post_init__(self) -> None:
        if self.opcode.needs_choice:
            if self.choice not in (0, 1):
                raise ConfigurationError("no-op BFPU requires choice in {0, 1}")
        elif self.choice is not None:
            raise ConfigurationError(f"{self.opcode} takes no choice operand")

    @classmethod
    def passthrough(cls, choice: int) -> "BinaryConfig":
        """A mux that forwards input ``choice`` unchanged."""
        return cls(BinaryOp.NO_OP, choice=choice)

    def describe(self) -> str:
        if self.opcode is BinaryOp.NO_OP:
            return f"mux(choice={self.choice})"
        return str(self.opcode)


class BFPU:
    """A single programmable binary filter processing unit.

    The opcode is fixed at compile time, so the per-packet dispatch is
    resolved once at construction: ``evaluate`` is a direct call into the
    selected single-cycle bitwise operation.
    """

    def __init__(self, config: BinaryConfig):
        self._config = config
        op = config.opcode
        self._fn: Callable[[int, int], int]
        if op is BinaryOp.NO_OP:
            if config.choice == 0:
                self._fn = lambda a, b: a
            else:
                self._fn = lambda a, b: b
        elif op is BinaryOp.UNION:
            self._fn = operator.or_
        elif op is BinaryOp.INTERSECTION:
            self._fn = operator.and_
        elif op is BinaryOp.DIFFERENCE:
            self._fn = lambda a, b: a & ~b
        else:  # pragma: no cover - exhaustive over BinaryOp
            raise ConfigurationError(f"unhandled opcode {op}")

    @property
    def config(self) -> BinaryConfig:
        return self._config

    def evaluate(self, a: int, b: int) -> int:
        """Merge the two input tables according to the configured opcode."""
        return self._fn(a, b)


"""K-UFPU: the programmable parallel chain pipeline (section 5.3.1).

A K-UFPU is a linear chain of ``chain_length`` UFPUs.  The first ``K`` units
are programmed with one identical unary opcode; the remaining units are
``no-op`` bypasses.  I/O generators between the units implement Equation 1:

    I_i = I_{i-1} - O_{i-1}   (for i > 1),   I_1 = I

and the final output is the union of the per-unit outputs,
``O = O_1 ∪ ... ∪ O_K``.

With ``K = 1`` a K-UFPU is functionally a plain UFPU.  With ``K > 1`` and a
selector opcode it filters *K distinct* entries: K ``min`` units yield the K
smallest entries, K ``random`` units yield K distinct uniform draws, etc.

The chain speaks raw id-mask ints: each unit's :meth:`~repro.core.ufpu.UFPU.step`
takes what the I/O generator left and the union is one ``|`` per unit.

Latency is deterministic — every input traverses all ``chain_length`` units
(bypass units still latch) — so the chain adds
``chain_length * UFPU_LATENCY_CYCLES`` cycles regardless of K, and is fully
pipelined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.operators import RelOp, UnaryOp
from repro.core.smbm import SMBM
from repro.core.ufpu import UFPU, UFPU_LATENCY_CYCLES, UnaryConfig
from repro.errors import ConfigurationError

__all__ = ["KUnaryConfig", "KUFPU"]


@dataclass(frozen=True)
class KUnaryConfig:
    """Compile-time configuration of a K-UFPU.

    ``k`` is the number of programmed (non-bypass) units; it must not exceed
    the physical chain length of the K-UFPU it is loaded into.
    """

    opcode: UnaryOp
    k: int = 1
    attr: str | None = None
    rel_op: RelOp | None = None
    val: int | None = None

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ConfigurationError(f"k must be non-negative, got {self.k}")
        if self.opcode is UnaryOp.NO_OP and self.k > 1:
            raise ConfigurationError("a no-op chain is meaningless beyond k=1")
        # Reuse UnaryConfig's operand validation.
        self.unit_config()

    def unit_config(self) -> UnaryConfig:
        """The per-unit configuration shared by the K programmed UFPUs."""
        return UnaryConfig(
            opcode=self.opcode, attr=self.attr, rel_op=self.rel_op, val=self.val
        )

    @classmethod
    def no_op(cls) -> "KUnaryConfig":
        return cls(UnaryOp.NO_OP, k=1)

    def describe(self) -> str:
        base = self.unit_config().describe()
        return base if self.k == 1 else f"K={self.k}, {base}"


class KUFPU:
    """A physical parallel chain of UFPUs with its I/O generators."""

    def __init__(self, chain_length: int, config: KUnaryConfig, *,
                 lfsr_seed: int = 1):
        if chain_length < 1:
            raise ConfigurationError(
                f"chain length must be >= 1, got {chain_length}"
            )
        if config.k > chain_length:
            raise ConfigurationError(
                f"K={config.k} exceeds physical chain length {chain_length}"
            )
        self._chain_length = chain_length
        self._config = config
        unit_cfg = config.unit_config()
        # Only the first K units are programmed; the rest are bypasses whose
        # outputs the I/O generators exclude from the final union.
        self._units = [
            UFPU(unit_cfg, lfsr_seed=lfsr_seed + i) for i in range(config.k)
        ]
        self._steps = [unit.step for unit in self._units]

    @property
    def chain_length(self) -> int:
        return self._chain_length

    @property
    def config(self) -> KUnaryConfig:
        return self._config

    @property
    def latency_cycles(self) -> int:
        """Deterministic traversal latency: all units latch, programmed or not."""
        return self._chain_length * UFPU_LATENCY_CYCLES

    def reset_state(self) -> None:
        for unit in self._units:
            unit.reset_state()

    def state(self) -> list:
        """The programmed units' registers (:meth:`UFPU.state`), in order."""
        return [unit.state() for unit in self._units]

    def load(self, state) -> None:
        """Set the registers :meth:`state` read."""
        if len(state) != len(self._units):
            raise ConfigurationError(
                f"unit state for {len(state)} units, the chain programs "
                f"{len(self._units)}"
            )
        for unit, registers in zip(self._units, state):
            unit.load(registers)

    @property
    def step(self) -> Callable[[int, SMBM], int]:
        """:meth:`evaluate`, or the one programmed unit's own step when
        K = 1: the same function, one call shallower."""
        return self._steps[0] if len(self._steps) == 1 else self.evaluate

    def evaluate(self, inp: int, smbm: SMBM) -> int:
        """One packet's traversal: Equation 1 chaining plus the output union."""
        if self._config.opcode is UnaryOp.NO_OP:
            return inp
        out = 0
        for step in self._steps:
            picked = step(inp, smbm)
            out |= picked
            inp &= ~picked
            if not inp:
                break  # remaining units see an empty table and contribute nothing
        return out

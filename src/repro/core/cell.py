"""The Cell: paired filter units behind 2×2 crossbars (section 5.3.2).

A Cell is the building block of the serial chain pipeline.  It combines
**two K-UFPUs and two BFPUs** with cheap 2×2 crossbar switches so that, with
2 inputs ``(I1, I2)`` and 2 outputs ``(O1, O2)``, it is *fully
reconfigurable*: any unary operation can be applied to either input, any
binary operation to the input pair, and any result can leave on either
output line.

Datapath (matching Figure 13/14):

    (I1, I2) --[input 2x2 crossbar]--> (a, b)
    u1 = K-UFPU1(a),  u2 = K-UFPU2(b)
    O1 = BFPU1(u1, u2),  O2 = BFPU2(u1, u2)

Applying only unary ops means programming the BFPUs as muxes
(``no-op`` with choice 0/1); applying a binary op to the raw inputs means
programming the K-UFPUs as ``no-op``; the Figure 14 pattern — unary ops on
both inputs merged by an ``intersection`` — uses all four units at once.

Lines carry raw id-mask ints: a Cell maps two masks to two masks, and the
units never see a line that did not come out of same-width logic, so no
hop inside it is checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bfpu import BFPU, BFPU_LATENCY_CYCLES, BinaryConfig
from repro.core.kufpu import KUFPU, KUnaryConfig
from repro.core.smbm import SMBM
from repro.core.ufpu import UFPU_LATENCY_CYCLES
from repro.errors import CellFault, ConfigurationError

__all__ = ["CellConfig", "Cell"]


@dataclass(frozen=True)
class CellConfig:
    """Compile-time configuration of one Cell.

    ``input_swap`` configures the input 2×2 crossbar (False = straight,
    True = crossed).  Defaults are full bypass: both K-UFPUs no-op and the
    BFPUs muxing input 1 to output 1 and input 2 to output 2.
    """

    input_swap: bool = False
    kufpu1: KUnaryConfig = field(default_factory=KUnaryConfig.no_op)
    kufpu2: KUnaryConfig = field(default_factory=KUnaryConfig.no_op)
    bfpu1: BinaryConfig = field(default_factory=lambda: BinaryConfig.passthrough(0))
    bfpu2: BinaryConfig = field(default_factory=lambda: BinaryConfig.passthrough(1))

    @classmethod
    def bypass(cls) -> "CellConfig":
        """The identity Cell: (O1, O2) = (I1, I2)."""
        return cls()

    def describe(self) -> str:
        parts = []
        if self.input_swap:
            parts.append("swap")
        parts.append(f"U1=[{self.kufpu1.describe()}]")
        parts.append(f"U2=[{self.kufpu2.describe()}]")
        parts.append(f"B1=[{self.bfpu1.describe()}]")
        parts.append(f"B2=[{self.bfpu2.describe()}]")
        return "Cell(" + ", ".join(parts) + ")"


class Cell:
    """A physical Cell with a given K-UFPU chain length.

    ``position`` (optional) records where the Cell sits in its pipeline as a
    ``(stage, index)`` pair (stage 1-based, index 0-based); it only matters
    for fault reporting — a dead Cell raises :class:`~repro.errors.CellFault`
    carrying its position so fail-around recompilation knows which physical
    resource to route around.

    Fault model (hardware faults, distinct from compile-time config):

    * :meth:`kill` — the whole Cell dies; evaluating it raises ``CellFault``.
    * :meth:`inject_stuck` — one unit column (side 1 or 2) is stuck: stuck-at
      0 drives that output line all-zeros, stuck-at 1 wedges the column's
      datapath transparent, so the output is a copy of the column's crossbar
      input (units no longer transform it).  Stuck faults are *silent* —
      they corrupt results without raising — which is what built-in self-test
      (golden-model comparison) exists to catch.
    """

    def __init__(self, chain_length: int, config: CellConfig, *, lfsr_seed: int = 1,
                 position: tuple[int, int] | None = None):
        self._config = config
        self._position = position
        self._dead = False
        self._stuck: dict[int, int] = {}
        self._kufpu1 = KUFPU(chain_length, config.kufpu1, lfsr_seed=lfsr_seed)
        self._kufpu2 = KUFPU(
            chain_length, config.kufpu2, lfsr_seed=lfsr_seed + chain_length
        )
        self._bfpu1 = BFPU(config.bfpu1)
        self._bfpu2 = BFPU(config.bfpu2)

    @property
    def config(self) -> CellConfig:
        return self._config

    @property
    def position(self) -> tuple[int, int] | None:
        return self._position

    @property
    def chain_length(self) -> int:
        return self._kufpu1.chain_length

    @property
    def latency_cycles(self) -> int:
        """Input crossbar is pure wiring; units dominate the latency."""
        return self._kufpu1.latency_cycles + BFPU_LATENCY_CYCLES

    # -- hardware fault hooks ---------------------------------------------------

    @property
    def is_dead(self) -> bool:
        return self._dead

    @property
    def stuck_faults(self) -> dict[int, int]:
        """Active stuck-at faults: {side: stuck_value} (copy)."""
        return dict(self._stuck)

    def kill(self) -> None:
        """The Cell stops responding; evaluation raises CellFault."""
        self._dead = True

    def revive(self) -> None:
        self._dead = False

    def inject_stuck(self, side: int, stuck: int) -> None:
        """Wedge output column ``side`` (1 or 2) at ``stuck`` (0 or 1)."""
        if side not in (1, 2):
            raise ConfigurationError(f"cell side must be 1 or 2, got {side}")
        if stuck not in (0, 1):
            raise ConfigurationError(f"stuck value must be 0 or 1, got {stuck}")
        self._stuck[side] = stuck

    def clear_stuck(self, side: int) -> None:
        """Remove the stuck-at fault on one side, if any."""
        self._stuck.pop(side, None)

    def reset_state(self) -> None:
        self._kufpu1.reset_state()
        self._kufpu2.reset_state()

    def evaluate(self, in1: int, in2: int, smbm: SMBM) -> tuple[int, int]:
        """One packet's traversal of the Cell."""
        if self._dead:
            stage, index = self._position if self._position else (None, None)
            raise CellFault(
                f"cell at stage={stage} index={index} is dead",
                stage=stage, index=index,
            )
        a, b = (in2, in1) if self._config.input_swap else (in1, in2)
        u1 = self._kufpu1.evaluate(a, smbm)
        u2 = self._kufpu2.evaluate(b, smbm)
        o1 = self._bfpu1.evaluate(u1, u2)
        o2 = self._bfpu2.evaluate(u1, u2)
        if self._stuck:
            s1 = self._stuck.get(1)
            if s1 is not None:
                o1 = 0 if s1 == 0 else in1
            s2 = self._stuck.get(2)
            if s2 is not None:
                o2 = 0 if s2 == 0 else in2
        return o1, o2


#: Latency of a Cell whose K-UFPUs have chain length L, in cycles.
def cell_latency_cycles(chain_length: int) -> int:
    """Deterministic Cell latency for a given K-UFPU chain length."""
    return chain_length * UFPU_LATENCY_CYCLES + BFPU_LATENCY_CYCLES

"""Unary Filter Processing Unit (section 5.2.1).

A UFPU is programmed at compile time with an opcode (and operands) from
:class:`~repro.core.operators.UnaryOp` and, at runtime, maps an input table —
encoded as a bit vector indexed by resource id — to an output bit vector, in
**two clock cycles**, fully pipelined.

The unit speaks raw id-mask ints (bit ``i`` set = resource ``i`` present),
the one set representation of the hardware model.  :meth:`UFPU.step` is
the paper's semantics on the mask engine: predicate/min/max run against
the SMBM's :class:`~repro.core.smbm.MetricIndex`, the metric's bucketed
sorted list with its prefix masks — bisects plus a handful of integer
bitmask ANDs, O(log N) instead of an O(N) temp-list walk.  :meth:`UFPU.evaluate` is the same step behind the one range check a
caller's mask gets; the units chained inside a K-UFPU, Cell and pipeline
call ``step`` on masks that came out of same-width logic.  The paper's
literal clock-by-clock temp-list walk lives apart, in
:mod:`repro.core.ufpu_reference`, and is reached only through
:class:`repro.core.policy.PolicyInterpreter`; this module does not import
it, so the reference cannot come to share the code it checks.

Operator semantics:

* **predicate** — cycle 1 copies the attribute's sorted list into a temp
  list and masks entries whose resource is absent from the input vector
  (using the SMBM reverse map); cycle 2 applies the predicate to every valid
  temp-list entry in parallel and sets the output bits through the reverse
  map.
* **min / max** — cycle 1 copies + masks as above; cycle 2 feeds the
  validity bits to a first-one / last-one priority encoder; because the list
  is sorted, the first (last) valid entry is the minimum (maximum).
* **round-robin** — keeps internal state ``<last_id, w>``; re-selects
  ``last_id`` while its weight (the value of ``attrX``) is not exhausted,
  else advances a cyclic priority encoder to the next valid id.  (The paper
  starts the cyclic search *at* ``last_id``, which would re-return a valid
  but weight-exhausted ``last_id`` forever; we start at ``last_id + 1``,
  which realises the abstract weighted-round-robin semantics of
  section 4.1.1.  Each entry is selected ``max(1, weight)`` times per round.)
* **random** — cycle 1 draws ``r`` from an LFSR; cycle 2 outputs ``r`` if
  valid, else the first valid index cyclically after ``r``.

The 2-cycle latency is :data:`UFPU_LATENCY_CYCLES`; the cycle-accurate
tests latch ``evaluate`` in a :class:`~repro.core.clocked.PipelineLatch` of
that latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.lfsr import LFSR
from repro.core.operators import RelOp, UnaryOp
from repro.core.priority_encoder import encode_cyclic
from repro.core.smbm import SMBM
from repro.errors import ConfigurationError

__all__ = ["UnaryConfig", "UFPU", "UFPU_LATENCY_CYCLES"]

#: Processing latency of a UFPU (section 5.2.1).
UFPU_LATENCY_CYCLES = 2


@dataclass(frozen=True)
class UnaryConfig:
    """Compile-time configuration of one UFPU.

    ``attr`` names the SMBM metric dimension the opcode operates on;
    ``rel_op``/``val`` are the predicate operands.  Operands not used by the
    opcode must be left ``None`` — the constructor enforces this so that a
    mis-compiled pipeline fails loudly.
    """

    opcode: UnaryOp
    attr: str | None = None
    rel_op: RelOp | None = None
    val: int | None = None

    def __post_init__(self) -> None:
        if self.opcode.needs_attribute and self.attr is None:
            raise ConfigurationError(f"{self.opcode} requires an attribute operand")
        if not self.opcode.needs_attribute and self.attr is not None:
            raise ConfigurationError(f"{self.opcode} takes no attribute operand")
        has_pred = self.rel_op is not None or self.val is not None
        if self.opcode.needs_predicate_operands:
            if self.rel_op is None or self.val is None:
                raise ConfigurationError("predicate requires rel_op and val operands")
        elif has_pred:
            raise ConfigurationError(f"{self.opcode} takes no rel_op/val operands")

    @classmethod
    def no_op(cls) -> "UnaryConfig":
        return cls(UnaryOp.NO_OP)

    def describe(self) -> str:
        """Human-readable form, e.g. ``predicate(util < 60)``."""
        if self.opcode is UnaryOp.PREDICATE:
            return f"predicate({self.attr} {self.rel_op} {self.val})"
        if self.opcode.needs_attribute:
            return f"{self.opcode}({self.attr})"
        return str(self.opcode)


class UFPU:
    """A single programmable unary filter processing unit.

    The opcode is fixed at compile time, so the per-packet dispatch is
    resolved once at construction: :attr:`step` is the selected operator.
    """

    def __init__(self, config: UnaryConfig, *, lfsr_seed: int = 1):
        self._config = config
        # Random operator state: a free-running 16-bit LFSR (section 5.2.1).
        self._lfsr = LFSR(16, seed=lfsr_seed)
        # Round-robin operator state: <last_id, w>.
        self._rr_last_id: int | None = None
        self._rr_w = 0
        #: ``step(mask, smbm) -> mask``: the configured operator, unchecked.
        self.step: Callable[[int, SMBM], int] = {
            UnaryOp.NO_OP: _identity,
            UnaryOp.PREDICATE: self._predicate,
            UnaryOp.MIN: self._min,
            UnaryOp.MAX: self._max,
            UnaryOp.ROUND_ROBIN: self._round_robin,
            UnaryOp.RANDOM: self._random,
        }[config.opcode]

    @property
    def config(self) -> UnaryConfig:
        return self._config

    def reset_state(self) -> None:
        """Clear the stateful operator registers (round-robin position)."""
        self._rr_last_id = None
        self._rr_w = 0

    def state(self) -> list:
        """The operator registers as ``[lfsr, last_id, w]``."""
        return [self._lfsr.state, self._rr_last_id, self._rr_w]

    def load(self, state) -> None:
        """Set the registers :meth:`state` read."""
        lfsr, self._rr_last_id, self._rr_w = state
        self._lfsr = LFSR(16, seed=lfsr)

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, inp: int, smbm: SMBM) -> int:
        """Apply the configured operation to the input table for one packet."""
        if inp >> smbm.capacity:  # an id >= N, or a negative int
            raise ConfigurationError(
                f"input mask {inp:#x} names an id outside the SMBM's "
                f"capacity {smbm.capacity}"
            )
        return self.step(inp, smbm)

    def _predicate(self, inp: int, smbm: SMBM) -> int:
        cfg = self._config
        assert cfg.attr is not None and cfg.rel_op is not None and cfg.val is not None
        return smbm.metric_index(cfg.attr).predicate_mask(cfg.rel_op, cfg.val, inp)

    def _min(self, inp: int, smbm: SMBM) -> int:
        assert self._config.attr is not None
        return smbm.metric_index(self._config.attr).min_mask(inp)

    def _max(self, inp: int, smbm: SMBM) -> int:
        assert self._config.attr is not None
        return smbm.metric_index(self._config.attr).max_mask(inp)

    def _round_robin(self, inp: int, smbm: SMBM) -> int:
        if not inp:
            return 0
        attr = self._config.attr
        assert attr is not None
        last = self._rr_last_id
        if last is not None and (inp >> last) & 1:
            weight = smbm.metric_of(last, attr) if last in smbm else 0
            if self._rr_w < max(1, weight):
                # Keep serving the same entry while its weight allows.
                self._rr_w += 1
                return 1 << last
        # Advance: first valid index cyclically after last (or from 0).
        start = 0 if last is None else (last + 1) % smbm.capacity
        nxt = encode_cyclic(inp, start)
        assert nxt is not None  # inp is non-empty
        self._rr_last_id = nxt
        self._rr_w = 1
        return 1 << nxt

    def _random(self, inp: int, smbm: SMBM) -> int:
        if not inp:
            return 0
        r = self._lfsr.sample(smbm.capacity)
        idx = r if (inp >> r) & 1 else encode_cyclic(inp, r)
        assert idx is not None
        return 1 << idx


def _identity(inp: int, smbm: SMBM) -> int:
    """The ``no-op`` opcode: the input table, unchanged."""
    return inp

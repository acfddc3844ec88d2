"""Filter operator definitions (section 4.1).

Thanos supports two classes of filter operators:

* **unary** — ``no-op``, ``predicate``, ``min``, ``max``, ``round-robin``,
  ``random`` — filter a single table on at most one attribute;
* **binary** — ``no-op`` (a 2:1 mux), ``union``, ``intersection``,
  ``difference`` — merge the outputs of two unary operations.

These enums are the *opcodes* with which UFPUs and BFPUs are programmed at
compile time; the semantic implementations live in :mod:`repro.core.ufpu`
and :mod:`repro.core.bfpu`, the naive reference in
:mod:`repro.core.ufpu_reference` and
:class:`~repro.core.policy.PolicyInterpreter`.
"""

from __future__ import annotations

import enum
import operator as _operator
from typing import Callable

__all__ = ["RelOp", "UnaryOp", "BinaryOp"]


class RelOp(enum.Enum):
    """Relational operators usable in a predicate: {<, >, <=, >=, ==, !=}."""

    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "=="
    NE = "!="

    @property
    def fn(self) -> Callable[[int, int], bool]:
        return _REL_FNS[self]

    def apply(self, lhs: int, rhs: int) -> bool:
        """Evaluate ``lhs rel_op rhs``."""
        return self.fn(lhs, rhs)

    def __str__(self) -> str:
        return self.value


_REL_FNS: dict[RelOp, Callable[[int, int], bool]] = {
    RelOp.LT: _operator.lt,
    RelOp.GT: _operator.gt,
    RelOp.LE: _operator.le,
    RelOp.GE: _operator.ge,
    RelOp.EQ: _operator.eq,
    RelOp.NE: _operator.ne,
}


class UnaryOp(enum.Enum):
    """Unary filter opcodes (section 4.1.1)."""

    NO_OP = "no-op"
    PREDICATE = "predicate"
    MIN = "min"
    MAX = "max"
    ROUND_ROBIN = "round-robin"
    RANDOM = "random"

    @property
    def needs_attribute(self) -> bool:
        """Whether the opcode consumes an ``attrX`` operand."""
        return self in (UnaryOp.PREDICATE, UnaryOp.MIN, UnaryOp.MAX, UnaryOp.ROUND_ROBIN)

    @property
    def needs_predicate_operands(self) -> bool:
        """Whether the opcode consumes ``rel_op`` and ``val`` operands."""
        return self is UnaryOp.PREDICATE

    @property
    def is_selector(self) -> bool:
        """Whether the opcode outputs at most a single entry."""
        return self in (UnaryOp.MIN, UnaryOp.MAX, UnaryOp.ROUND_ROBIN, UnaryOp.RANDOM)

    @property
    def is_stateful(self) -> bool:
        """Whether the opcode keeps per-unit state across packets.

        Stateful operators (round-robin position, LFSR phase) make a policy's
        output depend on evaluation history, so its results cannot be
        memoized against an unchanged table.
        """
        return self in (UnaryOp.ROUND_ROBIN, UnaryOp.RANDOM)

    def __str__(self) -> str:
        return self.value


class BinaryOp(enum.Enum):
    """Binary filter opcodes (section 4.1.2)."""

    NO_OP = "no-op"  # 2:1 mux controlled by `choice`
    UNION = "union"
    INTERSECTION = "intersection"
    DIFFERENCE = "difference"

    @property
    def needs_choice(self) -> bool:
        """Whether the opcode consumes a ``choice`` operand (the mux select)."""
        return self is BinaryOp.NO_OP

    def __str__(self) -> str:
        return self.value

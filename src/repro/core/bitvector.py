"""Fixed-width bit vectors.

Thanos encodes the relational tables flowing between filter processing units
as bit vectors indexed by resource id (section 5.2.1): bit ``i`` set means the
resource with id ``i`` is present in the (sub-)table.  Encoding tables this
way reduces the binary set operators of the BFPU to single-cycle bitwise
logic.

Inside the hardware model (units, Cells, the pipeline, the naive
interpreter's walk) such a vector is a raw int mask.  The class here is the
value the public reads hand back — ``CompiledPolicy.evaluate`` and its
siblings, ``PolicyInterpreter.evaluate``, ``FilterModule.evaluate`` — built
once from the output mask: a small, immutable-width, mutable-content bit
vector with bitwise AND/OR/NOT, population count and first/last set-bit
queries.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import ConfigurationError

__all__ = ["BitVector"]


class BitVector:
    """A fixed-width vector of bits backed by a Python integer.

    The width is fixed at construction; all bitwise operations require both
    operands to have the same width, mirroring fixed-width hardware buses.
    """

    __slots__ = ("_width", "_bits")

    def __init__(self, width: int, bits: int = 0):
        if width <= 0:
            raise ConfigurationError(f"bit vector width must be positive, got {width}")
        mask = (1 << width) - 1
        if bits & ~mask:
            raise ConfigurationError(
                f"initial value 0x{bits:x} does not fit in {width} bits"
            )
        self._width = width
        self._bits = bits

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, width: int) -> "BitVector":
        """All-clear vector of the given width."""
        return cls(width, 0)

    @classmethod
    def ones(cls, width: int) -> "BitVector":
        """All-set vector of the given width."""
        return cls(width, (1 << width) - 1)

    @classmethod
    def from_indices(cls, width: int, indices: Iterable[int]) -> "BitVector":
        """Vector with exactly the given bit positions set."""
        bits = 0
        for i in indices:
            if not 0 <= i < width:
                raise ConfigurationError(f"index {i} out of range for width {width}")
            bits |= 1 << i
        return cls(width, bits)

    @classmethod
    def single(cls, width: int, index: int) -> "BitVector":
        """Vector with only ``index`` set (a one-hot output)."""
        return cls.from_indices(width, (index,))

    @classmethod
    def from_int(cls, width: int, bits: int) -> "BitVector":
        """Unchecked internal constructor for the fast path.

        The caller guarantees ``0 <= bits < 2**width`` (e.g. the value came
        out of same-width bitwise logic); no validation is performed.
        """
        self = object.__new__(cls)
        self._width = width
        self._bits = bits
        return self

    # -- basic accessors ---------------------------------------------------

    @property
    def width(self) -> int:
        """Number of bit positions in the vector."""
        return self._width

    @property
    def value(self) -> int:
        """The raw integer value (bit ``i`` of the int is position ``i``)."""
        return self._bits

    def __len__(self) -> int:
        return self._width

    def __getitem__(self, index: int) -> bool:
        if not 0 <= index < self._width:
            raise IndexError(f"bit index {index} out of range [0, {self._width})")
        return bool((self._bits >> index) & 1)

    def __setitem__(self, index: int, value: bool) -> None:
        if not 0 <= index < self._width:
            raise IndexError(f"bit index {index} out of range [0, {self._width})")
        if value:
            self._bits |= 1 << index
        else:
            self._bits &= ~(1 << index)

    def __iter__(self) -> Iterator[bool]:
        bits = self._bits
        for _ in range(self._width):
            yield bool(bits & 1)
            bits >>= 1

    def indices(self) -> Iterator[int]:
        """Yield the positions of set bits in increasing order."""
        bits = self._bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def popcount(self) -> int:
        """Number of set bits."""
        return self._bits.bit_count()

    def is_empty(self) -> bool:
        """True when no bit is set (an empty table)."""
        return self._bits == 0

    # -- priority-encoder primitives ----------------------------------------

    def first_set(self) -> int | None:
        """Index of the lowest set bit, or ``None`` when empty.

        This is the combinational "priority encoder" the UFPU uses to find
        the first valid entry of a masked sorted list (section 5.2.1).
        """
        if self._bits == 0:
            return None
        return (self._bits & -self._bits).bit_length() - 1

    def last_set(self) -> int | None:
        """Index of the highest set bit, or ``None`` when empty."""
        if self._bits == 0:
            return None
        return self._bits.bit_length() - 1

    def first_set_from(self, start: int) -> int | None:
        """Index of the first set bit at or after ``start``, wrapping around.

        Implements the cyclic priority encoder used by the round-robin and
        random operators: the hardware feeds the rotated vector
        ``{v[start : N-1], v[0 : start-1]}`` to a priority encoder.
        """
        if not 0 <= start < self._width:
            raise IndexError(f"start {start} out of range [0, {self._width})")
        if self._bits == 0:
            return None
        high = self._bits >> start
        if high:
            return start + ((high & -high).bit_length() - 1)
        low = self._bits & ((1 << start) - 1)
        return (low & -low).bit_length() - 1

    # -- bitwise operators (the BFPU set operations) -------------------------

    def _check_width(self, other: "BitVector") -> None:
        if self._width != other._width:
            raise ConfigurationError(
                f"width mismatch: {self._width} vs {other._width}"
            )

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector.from_int(self._width, self._bits & other._bits)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector.from_int(self._width, self._bits | other._bits)

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector.from_int(self._width, self._bits ^ other._bits)

    def __invert__(self) -> "BitVector":
        return BitVector.from_int(self._width, ~self._bits & ((1 << self._width) - 1))

    def __sub__(self, other: "BitVector") -> "BitVector":
        """Set difference: bits in self and not in other (BFPU difference)."""
        self._check_width(other)
        return BitVector.from_int(self._width, self._bits & ~other._bits)

    # -- equality / hashing / repr ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._width == other._width and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self._width, self._bits))

    def copy(self) -> "BitVector":
        """An independent vector with the same width and contents."""
        return BitVector.from_int(self._width, self._bits)

    def __repr__(self) -> str:
        body = format(self._bits, f"0{self._width}b")
        return f"BitVector({self._width}, 0b{body})"

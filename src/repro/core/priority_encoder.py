"""Priority encoders.

A priority encoder takes an N-bit vector and returns the index of the first
(or last) set bit.  Thanos's UFPU uses priority encoders in three places
(section 5.2.1):

* ``min``/``max`` — find the first/last valid entry of the masked, sorted
  metric list;
* ``round-robin`` — find the next valid index in cyclic order after
  ``last_id``;
* ``random`` — find the first valid index at or after a random draw ``r``,
  wrapping around.

The functions here operate on raw int masks (bit ``i`` set = position ``i``
valid), the one set representation of the hardware model, and
:func:`encoder_depth` reports the combinational depth of the encoder (a
tree of 2:1 selectors), which feeds the timing model in
:mod:`repro.core.area`.
"""

from __future__ import annotations

import math

__all__ = [
    "encode_first",
    "encode_last",
    "encode_cyclic",
    "encoder_depth",
]


def encode_first(mask: int) -> int | None:
    """Index of the lowest set bit, or ``None`` if the mask is empty."""
    return (mask & -mask).bit_length() - 1 if mask else None


def encode_last(mask: int) -> int | None:
    """Index of the highest set bit, or ``None`` if the mask is empty."""
    return mask.bit_length() - 1 if mask else None


def encode_cyclic(mask: int, start: int) -> int | None:
    """First set bit at or after ``start``, wrapping to the vector start.

    Hardware realisation: rotate the vector right by ``start`` positions
    (pure wiring) and feed it to a first-one priority encoder.
    """
    high = mask >> start
    if high:
        return start + (high & -high).bit_length() - 1
    return encode_first(mask)


def encoder_depth(width: int) -> int:
    """Combinational logic depth, in gate levels, of an N-wide encoder.

    A first-one priority encoder over N bits is a balanced binary reduction
    tree, hence ``ceil(log2(N))`` levels.  This is the term that makes the
    UFPU clock rate fall with N in Table 2.
    """
    if width <= 1:
        return 1
    return max(1, math.ceil(math.log2(width)))

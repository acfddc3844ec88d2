"""Reference (naive) UFPU data path: the paper's literal temp-list walk.

The O(N) list-based predicate, min and max operators, and
:func:`reference_unary`, the K-UFPU of Equation 1 built from nothing else.
:class:`repro.core.policy.PolicyInterpreter` evaluates every stateless unary
node through :func:`reference_unary`; that interpreter is the one naive truth
the mask engine (:mod:`repro.core.ufpu`,
:meth:`repro.core.smbm.SMBM.metric_index`,
:meth:`~repro.core.smbm.SMBM.predicate_set`), the compiled pipeline and every
:func:`~repro.core.policy.fold` lowering are differentially tested against.
Nothing here reads a :class:`~repro.core.smbm.MetricIndex` or imports the
code it is the reference for: only ``SMBM.attr_list``.  Tables are raw
id-mask ints, as everywhere in the hardware model.

The operators mirror the paper's clock-by-clock description directly:
cycle 1 copies the attribute's sorted list into a temp list and masks
entries whose resource is absent from the input vector (NULL); cycle 2
applies the predicate per entry, or feeds the validity bits to a first-one /
last-one priority encoder (sorted list, so first valid = min, last valid =
max).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.operators import UnaryOp
from repro.core.priority_encoder import encode_first, encode_last
from repro.core.smbm import SMBM

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.kufpu import KUnaryConfig
    from repro.core.ufpu import UnaryConfig

__all__ = [
    "masked_temp_list",
    "naive_predicate",
    "naive_extreme",
    "reference_unary",
]


def masked_temp_list(
    config: "UnaryConfig", inp: int, smbm: SMBM
) -> list[tuple[int, int] | None]:
    """Cycle 1: copy the attribute list, masking invalid entries to NULL.

    Entry ``i`` is ``(value, id)`` when the reverse-mapped resource id is
    present in the input mask, else ``None`` (the paper's NULL).
    """
    assert config.attr is not None
    temp: list[tuple[int, int] | None] = []
    for value, rid in smbm.attr_list(config.attr):
        temp.append((value, rid) if (inp >> rid) & 1 else None)
    return temp


def naive_predicate(config: "UnaryConfig", inp: int, smbm: SMBM) -> int:
    """Cycle 2: apply the predicate to every valid temp-list entry."""
    assert config.rel_op is not None and config.val is not None
    out = 0
    for entry in masked_temp_list(config, inp, smbm):
        if entry is None:
            continue
        value, rid = entry
        if config.rel_op.apply(value, config.val):
            out |= 1 << rid
    return out


def naive_extreme(
    config: "UnaryConfig", inp: int, smbm: SMBM, *, want_min: bool
) -> int:
    """Cycle 2: validity bits -> first/last-one priority encoder."""
    temp = masked_temp_list(config, inp, smbm)
    valid = 0
    for i, entry in enumerate(temp):
        if entry is not None:
            valid |= 1 << i
    idx = encode_first(valid) if want_min else encode_last(valid)
    if idx is None:
        return 0
    entry = temp[idx]
    assert entry is not None  # the encoder only reports valid positions
    return 1 << entry[1]


def reference_unary(config: "KUnaryConfig", inp: int, smbm: SMBM) -> int:
    """A stateless K-UFPU by the book (Equation 1): ``K`` rounds of the
    unit operator, each over what the rounds before it left behind; the
    output is the union of the rounds."""
    op = config.opcode
    if op is UnaryOp.NO_OP:
        return inp
    # Round-robin and random keep cross-packet state: they have one
    # implementation (repro.core.kufpu.KUFPU) and no naive reference.
    assert not op.is_stateful, config.describe()
    unit = config.unit_config()
    out = 0
    remaining = inp
    for _ in range(config.k):
        if op is UnaryOp.PREDICATE:
            picked = naive_predicate(unit, remaining, smbm)
        else:
            picked = naive_extreme(unit, remaining, smbm,
                                   want_min=op is UnaryOp.MIN)
        out |= picked
        remaining &= ~picked
    return out

"""Columnar packet batches: the struct-of-arrays buffer of the batch tier.

A :class:`PacketBatch` holds one *column* per packet attribute instead of
one object per packet — the filter-request flags, the optional per-packet
input masks (candidate resource sets), and the output columns the filter
module writes (``filter_output`` / ``filter_selected`` /
``filter_epoch``).  Columns keep evaluation costs
amortised: the batched engine touches each column once per batch instead
of chasing ``Packet`` objects and metadata dicts once per packet.

The metadata keys mirror the per-packet protocol of
:mod:`repro.switch.filter_module`; they are *defined* here (the switch
module re-exports them) so the engine layer has no dependency on the
switch layer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids rmt import at runtime
    from repro.rmt.packet import Packet

__all__ = [
    "PacketBatch",
    "META_FILTER_REQUEST",
    "META_FILTER_OUTPUT",
    "META_FILTER_SELECTED",
    "META_FILTER_INPUT",
    "META_FILTER_EPOCH",
    "checked_mask",
]

#: Metadata flag a packet sets to request filtering.
META_FILTER_REQUEST = "filter_request"
#: Metadata keys the filter module writes.
META_FILTER_OUTPUT = "filter_output"      # bit-vector value (int)
META_FILTER_SELECTED = "filter_selected"  # single id, or -1 if not a singleton
#: Optional per-packet candidate set: an id-bitmask (int) restricting the
#: resource table the policy sees for this packet.  Absent means the full
#: table (the common case — Figure 14's pipeline inputs).
META_FILTER_INPUT = "filter_input"
#: Plan-epoch watermark stamped alongside every filter output: which
#: installed plan generation produced the result.  A hitless hot-swap bumps
#: the epoch exactly once, so a packet stream spanning a swap carries a
#: monotone watermark separating old-plan from new-plan outputs — the
#: invariant the swap tests key on ("never a mixed plan").
META_FILTER_EPOCH = "filter_epoch"


def checked_mask(mask: object) -> int:
    """A packet's ``META_FILTER_INPUT`` value as the int mask it must be.

    The one place the mask enters (the scalar hook and the columnariser
    both call it): an ``int`` passes unchanged — negative ones keep their
    two's-complement meaning — and anything else is refused, ``bool`` and
    ``float`` included, rather than coerced or left to raise a bare
    builtin error from the middle of a batch.
    """
    if type(mask) is int:
        return mask
    raise ConfigurationError(
        f"{META_FILTER_INPUT} must be an int id-bitmask, "
        f"got {type(mask).__name__}"
    )


class PacketBatch:
    """A fixed-size batch of packets in columnar (struct-of-arrays) form.

    ``request[i]`` — whether packet ``i`` asked for filtering;
    ``input_masks`` — ``None`` for a *uniform* batch (every packet filters
    the full table), else one ``int | None`` mask per packet (``None`` =
    full table for that packet);
    ``outputs`` / ``selected`` / ``epochs`` — result columns, ``None``
    until evaluated.
    """

    __slots__ = ("_size", "_request", "_input_masks",
                 "_outputs", "_selected", "_epochs", "_packets")

    def __init__(
        self,
        size: int,
        *,
        request: Sequence[bool] | None = None,
        input_masks: Sequence[int | None] | None = None,
    ):
        if size < 0:
            raise ConfigurationError(f"batch size must be >= 0, got {size}")
        if request is not None and len(request) != size:
            raise ConfigurationError(
                f"request column has {len(request)} rows, batch size is {size}"
            )
        if input_masks is not None and len(input_masks) != size:
            raise ConfigurationError(
                f"input_masks column has {len(input_masks)} rows, "
                f"batch size is {size}"
            )
        self._size = size
        self._request = (
            [True] * size if request is None else [bool(r) for r in request]
        )
        self._input_masks = (
            None if input_masks is None else list(input_masks)
        )
        self._outputs: list[int | None] = [None] * size
        self._selected: list[int | None] = [None] * size
        self._epochs: list[int | None] = [None] * size
        self._packets: "Sequence[Packet] | None" = None

    # -- constructors -------------------------------------------------------------

    @classmethod
    def uniform(cls, size: int) -> "PacketBatch":
        """A homogeneous batch: every packet filters the full table."""
        return cls(size)

    @classmethod
    def from_packets(cls, packets: "Sequence[Packet]") -> "PacketBatch":
        """Columnarise a packet list: one pass over the objects, then the
        engine works on flat columns.

        The batch remembers the source packets so :meth:`scatter` can write
        the output columns back onto their metadata afterwards.
        """
        metas = [packet.metadata for packet in packets]
        masks = [meta.get(META_FILTER_INPUT) for meta in metas]
        batch = cls.from_rows(packets, [
            None if mask is None else checked_mask(mask) for mask in masks])
        batch._request = [bool(meta.get(META_FILTER_REQUEST))
                          for meta in metas]
        return batch

    @classmethod
    def from_rows(cls, packets: "Sequence[Packet]",
                  input_masks: Sequence[int | None]) -> "PacketBatch":
        """:meth:`from_packets` with both columns already read: every packet
        requests filtering and ``input_masks`` holds each one's checked
        mask (``None`` = the full table) — how the switch hands over a run
        it classified at the batch's edge, without reading any metadata
        again."""
        masked = any(mask is not None for mask in input_masks)
        batch = cls(len(packets), input_masks=input_masks if masked else None)
        batch._packets = packets
        return batch

    # -- columns ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return self._size

    def __len__(self) -> int:
        return self._size

    @property
    def request(self) -> list[bool]:
        """The filter-request column."""
        return self._request

    @property
    def input_masks(self) -> list[int | None] | None:
        """Per-packet candidate masks, or ``None`` for a uniform batch."""
        return self._input_masks

    @property
    def outputs(self) -> list[int | None]:
        """The ``filter_output`` column (raw int masks; ``None`` = not run)."""
        return self._outputs

    @property
    def selected(self) -> list[int | None]:
        """The ``filter_selected`` column (id, or -1 if not a singleton)."""
        return self._selected

    @property
    def epochs(self) -> list[int | None]:
        """The ``filter_epoch`` watermark column (plan generation that
        produced each row's output; ``None`` = not run)."""
        return self._epochs

    def requesting_indices(self) -> list[int]:
        """Row indices of the packets that asked for filtering."""
        return [i for i, req in enumerate(self._request) if req]

    # -- write-back -------------------------------------------------------------------

    def scatter(self) -> None:
        """Write the output columns back onto the source packets' metadata
        (no-op rows whose packets did not request filtering, exactly like
        the scalar :meth:`FilterModule.hook`)."""
        if self._packets is None:
            raise ConfigurationError(
                "scatter() requires a batch built with from_packets()"
            )
        for packet, out, sel, epoch in zip(self._packets, self._outputs,
                                           self._selected, self._epochs):
            if out is None:
                continue
            packet.metadata[META_FILTER_OUTPUT] = out
            packet.metadata[META_FILTER_SELECTED] = sel
            if epoch is not None:
                packet.metadata[META_FILTER_EPOCH] = epoch

    def __repr__(self) -> str:
        kind = "uniform" if self._input_masks is None else "masked"
        done = sum(1 for out in self._outputs if out is not None)
        return (f"PacketBatch(size={self._size}, {kind}, "
                f"requesting={len(self.requesting_indices())}, "
                f"evaluated={done})")

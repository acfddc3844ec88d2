"""PacketBatch columnar buffer: construction, columns, scatter."""

from __future__ import annotations

import pytest

from repro.engine.batch import (
    META_FILTER_INPUT,
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    META_FILTER_SELECTED,
    PacketBatch,
)
from repro.errors import ConfigurationError
from repro.rmt.packet import Packet


def test_uniform_batch_requests_everything():
    batch = PacketBatch.uniform(5)
    assert batch.size == len(batch) == 5
    assert batch.request == [True] * 5
    assert batch.input_masks is None
    assert batch.requesting_indices() == list(range(5))
    assert batch.outputs == [None] * 5


def test_column_length_validation():
    with pytest.raises(ConfigurationError):
        PacketBatch(3, request=[True, False])
    with pytest.raises(ConfigurationError):
        PacketBatch(3, input_masks=[1, 2, 3, 4])
    with pytest.raises(ConfigurationError):
        PacketBatch(-1)


def test_from_packets_and_scatter_round_trip():
    packets = []
    for i in range(4):
        p = Packet()
        if i != 2:
            p.metadata[META_FILTER_REQUEST] = 1
        if i == 3:
            p.metadata[META_FILTER_INPUT] = 0b1010
        packets.append(p)
    batch = PacketBatch.from_packets(packets)
    assert batch.size == 4
    assert batch.request == [True, True, False, True]
    assert batch.input_masks == [None, None, None, 0b1010]

    batch.outputs[0] = 0b01
    batch.selected[0] = 0
    batch.outputs[3] = 0b1000
    batch.selected[3] = 3
    batch.scatter()
    assert packets[0].metadata[META_FILTER_OUTPUT] == 0b01
    assert packets[0].metadata[META_FILTER_SELECTED] == 0
    assert packets[3].metadata[META_FILTER_OUTPUT] == 0b1000
    assert packets[3].metadata[META_FILTER_SELECTED] == 3
    # Rows that were never evaluated stay untouched.
    assert META_FILTER_OUTPUT not in packets[1].metadata
    assert META_FILTER_OUTPUT not in packets[2].metadata


def test_scatter_without_packets_is_an_error():
    with pytest.raises(ConfigurationError):
        PacketBatch.uniform(2).scatter()

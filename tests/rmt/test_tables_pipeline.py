"""Tests for RMT register arrays: the stateful memory of one stage."""

import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.rmt.registers import RegisterArray


class TestRegisterArray:
    def test_single_access_per_packet_enforced(self):
        """Section 2.2: one entry per register array per packet per stage."""
        reg = RegisterArray("counters", 8)
        reg.begin_packet("pkt1")
        reg.read(3)
        with pytest.raises(ConfigurationError, match="one entry"):
            reg.read(4)

    def test_same_index_repeat_access_ok(self):
        reg = RegisterArray("counters", 8)
        reg.begin_packet("pkt1")
        value = reg.read(3)
        reg.write(3, value + 1)
        assert reg.read(3) == 1

    def test_next_packet_resets_budget(self):
        reg = RegisterArray("counters", 8)
        reg.begin_packet("pkt1")
        reg.read(3)
        reg.begin_packet("pkt2")
        reg.read(4)

    def test_read_modify_write(self):
        reg = RegisterArray("counters", 4)
        reg.begin_packet("p")
        assert reg.read_modify_write(2, 5) == 5
        reg.begin_packet("q")
        assert reg.read_modify_write(2, 1) == 6

    def test_bounds(self):
        reg = RegisterArray("counters", 4)
        reg.begin_packet("p")
        with pytest.raises(CapacityError):
            reg.read(4)

    def test_control_plane_peek_is_unconstrained(self):
        reg = RegisterArray("counters", 4, initial=9)
        assert reg.peek_all() == [9, 9, 9, 9]

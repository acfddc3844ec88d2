"""Tests for LFSR, priority encoders, and the one clocked primitive."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.clocked import PipelineLatch
from repro.core.lfsr import LFSR, MAXIMAL_TAPS
from repro.core.priority_encoder import (
    encode_cyclic,
    encode_first,
    encode_last,
    encoder_depth,
)
from repro.errors import ConfigurationError, SimulationError


class TestLFSR:
    def test_zero_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            LFSR(8, seed=0)

    def test_unknown_width_rejected(self):
        with pytest.raises(ConfigurationError):
            LFSR(3)

    def test_state_never_zero(self):
        lfsr = LFSR(4, seed=5)
        for _ in range(64):
            assert lfsr.step() != 0

    @pytest.mark.parametrize("width", [4, 5, 6, 7, 8])
    def test_maximal_period(self, width):
        """A maximal-length LFSR visits every non-zero state exactly once."""
        lfsr = LFSR(width, seed=1)
        seen = set()
        for _ in range(lfsr.period()):
            seen.add(lfsr.step())
        assert len(seen) == (1 << width) - 1

    def test_sample_in_range(self):
        lfsr = LFSR(8, seed=7)
        for _ in range(100):
            assert 0 <= lfsr.sample(13) < 13

    def test_sample_bad_range(self):
        with pytest.raises(ConfigurationError):
            LFSR(8).sample(0)

    def test_deterministic_given_seed(self):
        a, b = LFSR(16, seed=42), LFSR(16, seed=42)
        assert [a.step() for _ in range(20)] == [b.step() for _ in range(20)]

    def test_all_documented_widths_construct(self):
        for width in MAXIMAL_TAPS:
            LFSR(width).step()

    def test_sample_roughly_uniform(self):
        lfsr = LFSR(16, seed=3)
        counts = [0] * 8
        draws = 8000
        for _ in range(draws):
            counts[lfsr.sample(8)] += 1
        for c in counts:
            assert abs(c - draws / 8) < draws / 8 * 0.25


class TestPriorityEncoder:
    def test_first_last(self):
        v = (1 << 4) | (1 << 9)
        assert encode_first(v) == 4
        assert encode_last(v) == 9

    def test_cyclic(self):
        v = (1 << 4) | (1 << 9)
        assert encode_cyclic(v, 4) == 4
        assert encode_cyclic(v, 5) == 9
        assert encode_cyclic(v, 10) == 4

    def test_empty_returns_none(self):
        v = 0
        assert encode_first(v) is None
        assert encode_last(v) is None
        assert encode_cyclic(v, 3) is None

    @pytest.mark.parametrize(
        "width,depth", [(1, 1), (2, 1), (4, 2), (64, 6), (128, 7), (100, 7)]
    )
    def test_encoder_depth(self, width, depth):
        assert encoder_depth(width) == depth


class TestPipelineLatch:
    def test_latency_is_exact(self):
        latch = PipelineLatch(3)
        latch.issue("x")
        assert latch.tick() is None
        assert latch.tick() is None
        assert latch.tick() == "x"

    def test_fully_pipelined_one_per_cycle(self):
        """A new item can be issued every cycle; each retires `latency` later."""
        latch = PipelineLatch(2)
        outputs = []
        for i in range(10):
            latch.issue(i)
            outputs.append(latch.tick())
        # Item issued at cycle i retires on the tick completing cycle i+1
        # (two cycles of processing: issue cycle + one more).
        assert outputs == [None, 0, 1, 2, 3, 4, 5, 6, 7, 8]

    def test_double_issue_same_cycle_rejected(self):
        latch = PipelineLatch(2)
        latch.issue(1)
        with pytest.raises(SimulationError):
            latch.issue(2)

    def test_occupancy(self):
        latch = PipelineLatch(3)
        latch.issue("a")
        latch.tick()
        latch.issue("b")
        latch.tick()
        assert latch.occupancy() == 2

    def test_zero_latency_rejected(self):
        with pytest.raises(SimulationError):
            PipelineLatch(0)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=40))
    def test_retirement_order_preserved(self, latency, count):
        latch = PipelineLatch(latency)
        got = []
        for i in range(count + latency):
            if i < count:
                latch.issue(i)
            out = latch.tick()
            if out is not None:
                got.append(out)
        assert got == list(range(count))


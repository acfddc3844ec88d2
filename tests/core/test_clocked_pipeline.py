"""Cycle-accurate integration tests: the section 5 design goals.

"The goal of our hardware design is to have a fully pipelined design that
can process a new data packet every clock cycle, while incurring only a
small, and more importantly, deterministic processing latency."

The pipeline's functional ``evaluate`` (computed against the table visible
at issue time, as the first stage latches its operands on entry) is
latched in a :class:`PipelineLatch` of ``params.latency_cycles``: the one
clocked primitive, driven directly.
"""

import random

from repro.core.clocked import PipelineLatch
from repro.core.compiler import PolicyCompiler
from repro.core.pipeline import FilterPipeline, PipelineParams
from repro.core.policy import Policy, TableRef, min_of, predicate
from repro.core.smbm import SMBM, ClockedSMBM


def build_smbm(n=16, seed=1):
    rng = random.Random(seed)
    smbm = SMBM(n, ["x"])
    for rid in range(n):
        smbm.add(rid, {"x": rng.randrange(1000)})
    return smbm


def compiled_min(params):
    compiler = PolicyCompiler(params)
    return compiler.compile(Policy(min_of(TableRef(), "x")))


def clocked(params, compiled):
    """The compiled plan's pipeline and a latch of its latency."""
    return (FilterPipeline(params, compiled.config),
            PipelineLatch(params.latency_cycles))


class TestDeterministicLatency:
    def test_output_emerges_after_exact_latency(self):
        params = PipelineParams(n=2, k=2, f=2, chain_length=2)
        compiled = compiled_min(params)
        pipe, latch = clocked(params, compiled)
        smbm = build_smbm()
        latch.issue(pipe.evaluate(smbm))
        outputs = []
        for _ in range(params.latency_cycles):
            outputs.append(latch.tick())
        assert all(out is None for out in outputs[:-1])
        assert outputs[-1] is not None

    def test_latency_matches_formula(self):
        for n, k, chain in [(2, 1, 1), (4, 3, 4), (8, 2, 2)]:
            params = PipelineParams(n=n, k=k, f=2, chain_length=chain)
            assert params.latency_cycles == k * (2 * chain + 1)


class TestLineRate:
    def test_one_packet_per_cycle_sustained(self):
        """Issue a packet every cycle; outputs retire once per cycle, in
        order, after the fill latency."""
        params = PipelineParams(n=2, k=1, f=2, chain_length=1)
        compiled = compiled_min(params)
        pipe, latch = clocked(params, compiled)
        smbm = build_smbm()
        packets = 20
        retired = 0
        for cycle in range(packets + params.latency_cycles):
            if cycle < packets:
                latch.issue(pipe.evaluate(smbm))
            out = latch.tick()
            if out is not None:
                retired += 1
        assert retired == packets

    def test_occupancy_tracks_in_flight_packets(self):
        params = PipelineParams(n=2, k=2, f=2, chain_length=2)
        compiled = compiled_min(params)
        pipe, latch = clocked(params, compiled)
        smbm = build_smbm()
        for _ in range(3):
            latch.issue(pipe.evaluate(smbm))
            latch.tick()
        assert latch.occupancy() == 3


class TestConcurrentWrites:
    def test_packets_see_issue_time_snapshot(self):
        """A packet's result reflects the table at issue time, even when
        the table is rewritten while the packet is in flight."""
        params = PipelineParams(n=2, k=2, f=2, chain_length=2)
        compiled = compiled_min(params)
        pipe, latch = clocked(params, compiled)
        smbm = SMBM(8, ["x"])
        smbm.add(0, {"x": 100})
        smbm.add(1, {"x": 50})

        latch.issue(pipe.evaluate(smbm))  # min is id 1
        latch.tick()
        smbm.update(1, {"x": 900})  # in-flight table change
        results = []
        for _ in range(params.latency_cycles):
            out = latch.tick()
            if out is not None:
                results.append(out)
        line = compiled.output_line
        assert results[0][line] == 1 << 1

        # A packet issued after the write sees the new minimum.
        latch.issue(pipe.evaluate(smbm))
        for _ in range(params.latency_cycles):
            out = latch.tick()
        assert out[line] == 1 << 0

    def test_full_switch_cadence(self):
        """SMBM write pipeline and filter pipeline driven off one clock:
        probes and data packets interleave, every component ticks."""
        params = PipelineParams(n=2, k=1, f=2, chain_length=1)
        compiled = compiled_min(params)
        pipe, latch = clocked(params, compiled)
        table = ClockedSMBM(8, ["x"])
        rng = random.Random(4)

        outputs = []
        for cycle in range(60):
            if cycle % 3 == 0:  # a probe arrives: update some resource
                rid = rng.randrange(8)
                if rid in table.read():
                    table.issue_delete(rid)
                else:
                    table.issue_add(rid, {"x": rng.randrange(100)})
            if len(table.read()) > 0:
                latch.issue(pipe.evaluate(table.read()))
            out = latch.tick()
            table.tick()
            if out is not None:
                outputs.append(out)
            table.read().check_invariants()
        assert outputs  # data kept flowing throughout

"""Ablation: the section 2.2 RMT baseline — why RMT cannot filter at line rate.

RMT register arrays allow one entry access per packet per stage, so a
table-wide filter over N resources needs O(N) stages or O(N) recirculations
of the packet.  This bench implements the min-filter both ways:

* the RMT way — recirculating a packet through a stage that may read one
  register entry per pass (we count the passes);
* the Thanos way — one filter-module evaluation.

It demonstrates the motivating claim: RMT needs N passes (and each
recirculation costs a full pipeline traversal and halves goodput), Thanos
needs one deterministic traversal.
"""

import random

from benchmarks.report import emit, format_table
from repro.core.operators import UnaryOp
from repro.core.smbm import SMBM
from repro.core.ufpu import UFPU, UnaryConfig
from repro.rmt.packet import Packet
from repro.rmt.registers import RegisterArray

N = 128


def _values(seed=11):
    rng = random.Random(seed)
    return [rng.randrange(100_000) for _ in range(N)]


def rmt_min_by_recirculation(values):
    """One register read per pass; the packet carries the running minimum
    in its metadata and recirculates N times."""
    registers = RegisterArray("metrics", N)
    for i, value in enumerate(values):
        registers.begin_packet("control")
        registers.write(i, value)
    packet = Packet(metadata={"min_value": 1 << 62, "min_index": -1})
    passes = 0
    for index in range(N):
        # Each recirculation is a fresh pipeline traversal: the register
        # array budget resets per packet pass.
        registers.begin_packet((packet, index))
        value = registers.read(index)
        passes += 1
        if value < packet.metadata["min_value"]:
            packet.metadata["min_value"] = value
            packet.metadata["min_index"] = index
    return packet.metadata["min_index"], passes


def thanos_min(values):
    smbm = SMBM(N, ["x"])
    for i, value in enumerate(values):
        smbm.add(i, {"x": value})
    unit = UFPU(UnaryConfig(UnaryOp.MIN, attr="x"))
    out = unit.evaluate(smbm.id_mask(), smbm)
    return out.bit_length() - 1 if out else None


def test_rmt_recirculation_baseline(benchmark):
    values = _values()
    index, passes = benchmark(rmt_min_by_recirculation, values)
    assert passes == N  # the section 2.2 claim: O(N) pipeline traversals
    assert values[index] == min(values)


def test_thanos_single_traversal(benchmark):
    values = _values()
    index = benchmark(thanos_min, values)
    assert index is not None and values[index] == min(values)

    from repro.core.ufpu import UFPU_LATENCY_CYCLES

    emit("ablation_rmt_baseline", format_table(
        f"Ablation - min-filter over N={N} resources: RMT vs Thanos",
        ["architecture", "pipeline traversals per decision", "throughput impact"],
        [
            ["RMT (register array, recirculation)", f"{N}",
             f"goodput divided by {N}; latency grows with N"],
            ["Thanos filter module", "1",
             f"line rate; deterministic {UFPU_LATENCY_CYCLES}-cycle unit latency"],
        ],
    ))

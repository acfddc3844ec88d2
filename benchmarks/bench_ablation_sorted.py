"""Ablation: sorted SMBM lists vs an unsorted table scan.

Section 5.1.1 argues the SMBM keeps each dimension sorted so that ordering-
dependent filters (min/max, and the masked-first-entry trick of the UFPU)
reduce to a priority encode rather than a scan.  This bench compares the
min-operator over the sorted SMBM against an unsorted reference scan, both
in software time and in the hardware-relevant metric (comparisons on the
critical path: O(1) priority encode vs an O(N) comparison tree with a full
compare at every node).
"""

import random

from benchmarks.report import emit, format_table
from repro.core.operators import UnaryOp
from repro.core.smbm import SMBM
from repro.core.ufpu import UFPU, UnaryConfig

N = 256


def _build(seed=7):
    rng = random.Random(seed)
    smbm = SMBM(N, ["x"])
    for rid in range(N):
        smbm.add(rid, {"x": rng.randrange(100_000)})
    return smbm


def _unsorted_scan_min(rows: dict[int, dict[str, int]], metric: str) -> int:
    """The unsorted organisation: one O(N) pass comparing every row's value
    (the first row seen wins a tie, as the SMBM's FIFO order does here,
    where rows were added in id order)."""
    best_rid, best = -1, None
    for rid, row in rows.items():
        if best is None or row[metric] < best:
            best_rid, best = rid, row[metric]
    return best_rid


def test_sorted_smbm_min(benchmark):
    smbm = _build()
    unit = UFPU(UnaryConfig(UnaryOp.MIN, attr="x"))
    out = benchmark(unit.evaluate, smbm.id_mask(), smbm)
    assert out.bit_count() == 1


def test_unsorted_scan_min(benchmark):
    smbm = _build()
    table = smbm.snapshot()
    out = benchmark(_unsorted_scan_min, table, "x")

    # The two organisations agree on the answer...
    unit = UFPU(UnaryConfig(UnaryOp.MIN, attr="x"))
    assert unit.evaluate(smbm.id_mask(), smbm) == 1 << out

    # ...but differ in hardware cost: the sorted list needs a single
    # priority encode (depth log2 N), the unsorted scan needs an N-leaf
    # comparison tree with a value compare at every node.
    from repro.core.priority_encoder import encoder_depth

    rows = [
        ["sorted SMBM + priority encoder",
         f"{encoder_depth(N)} gate levels, 0 value comparators"],
        ["unsorted scan (comparison tree)",
         f"{encoder_depth(N)} levels x value comparators = {N - 1} comparators"],
    ]
    emit("ablation_sorted", format_table(
        f"Ablation - min over N={N} entries: sorted vs unsorted organisation",
        ["organisation", "critical-path cost"],
        rows,
    ))

"""Table 2: UFPU and BFPU clock rates and chip area vs N.

Regenerates Table 2 from the model; the timed sections measure the software
evaluation cost of each unit (one hardware-cycle-equivalent operation).
"""

import random

from benchmarks.report import emit, format_table
from repro.core import area
from repro.core.bfpu import BFPU, BinaryConfig
from repro.core.operators import BinaryOp, UnaryOp
from repro.core.smbm import SMBM
from repro.core.ufpu import UFPU, UnaryConfig


def _table2_report() -> str:
    rows = []
    for n in (64, 128, 256, 512):
        b_area, b_clock = area.PAPER_TABLE2_BFPU[n]
        rows.append([
            "BFPU", f"N={n}",
            f"{b_area * 1e6:.0f}", f"{area.bfpu_area_mm2(n) * 1e6:.0f}",
            f"{b_clock:.0f}", f"{area.bfpu_clock_ghz(n):.0f}",
        ])
    for n in (64, 128, 256, 512):
        u_area, u_clock = area.PAPER_TABLE2_UFPU[n]
        rows.append([
            "UFPU", f"N={n}",
            f"{u_area * 1e6:.0f}", f"{area.ufpu_area_mm2(n) * 1e6:.0f}",
            f"{u_clock:.1f}", f"{area.ufpu_clock_ghz(n):.1f}",
        ])
    return format_table(
        "Table 2 - UFPU/BFPU: paper (ASIC synthesis) vs model",
        ["unit", "N", "area um^2 (paper)", "area um^2 (model)",
         "clock GHz (paper)", "clock GHz (model)"],
        rows,
    )


def _populated_smbm(n=128, seed=2):
    rng = random.Random(seed)
    smbm = SMBM(n, ["x"])
    for rid in range(n):
        smbm.add(rid, {"x": rng.randrange(10_000)})
    return smbm, smbm.id_mask()


def test_table2_ufpu_min_evaluation(benchmark):
    emit("table2_fpu", _table2_report())
    smbm, full = _populated_smbm()
    unit = UFPU(UnaryConfig(UnaryOp.MIN, attr="x"))
    result = benchmark(unit.evaluate, full, smbm)
    assert result.bit_count() == 1


def test_table2_ufpu_predicate_evaluation(benchmark):
    smbm, full = _populated_smbm()
    from repro.core.operators import RelOp

    unit = UFPU(UnaryConfig(UnaryOp.PREDICATE, attr="x", rel_op=RelOp.LT, val=5000))
    result = benchmark(unit.evaluate, full, smbm)
    assert 0 < result.bit_count() < 128


def test_table2_bfpu_intersection_evaluation(benchmark):
    rng = random.Random(3)
    a = sum(1 << i for i in rng.sample(range(128), 64))
    b = sum(1 << i for i in rng.sample(range(128), 64))
    unit = BFPU(BinaryConfig(BinaryOp.INTERSECTION))
    result = benchmark(unit.evaluate, a, b)
    assert result == (a & b)

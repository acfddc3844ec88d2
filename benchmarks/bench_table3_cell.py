"""Table 3: Cell clock rates and chip area vs K (the K-UFPU chain length).

Regenerates Table 3 from the model; the timed section runs a full Cell
evaluation at the paper's default K=4 (two fused predicates merged by an
intersection, the Figure 14 stage-1 pattern).
"""

import random

from benchmarks.report import emit, format_table
from repro.core import area
from repro.core.bfpu import BinaryConfig
from repro.core.cell import Cell, CellConfig
from repro.core.kufpu import KUnaryConfig
from repro.core.operators import BinaryOp, RelOp, UnaryOp
from repro.core.smbm import SMBM


def _table3_report() -> str:
    rows = []
    for k in (2, 4, 8, 16):
        paper_area, paper_clock = area.PAPER_TABLE3[k]
        rows.append([
            f"K={k}",
            f"{paper_area:.3f}", f"{area.cell_area_mm2(k):.3f}",
            f"{paper_clock:.1f}", f"{area.cell_clock_ghz(k):.1f}",
        ])
    return format_table(
        "Table 3 - Cell: paper (ASIC synthesis) vs model",
        ["K", "area mm^2 (paper)", "area mm^2 (model)",
         "clock GHz (paper)", "clock GHz (model)"],
        rows,
    )


def test_table3_cell_evaluation(benchmark):
    emit("table3_cell", _table3_report())

    rng = random.Random(4)
    smbm = SMBM(128, ["x", "y"])
    for rid in range(128):
        smbm.add(rid, {"x": rng.randrange(100), "y": rng.randrange(100)})
    cell = Cell(
        4,
        CellConfig(
            kufpu1=KUnaryConfig(UnaryOp.PREDICATE, attr="x", rel_op=RelOp.LT, val=50),
            kufpu2=KUnaryConfig(UnaryOp.PREDICATE, attr="y", rel_op=RelOp.GT, val=30),
            bfpu1=BinaryConfig(BinaryOp.INTERSECTION),
        ),
    )
    full = smbm.id_mask()
    o1, _o2 = benchmark(cell.evaluate, full, full, smbm)
    assert o1 != 0
    # Section 6 claims under test: linear area in K, K-independent clock.
    assert area.cell_area_mm2(16) / area.cell_area_mm2(2) == 8.0
    assert area.cell_clock_ghz(2) == area.cell_clock_ghz(16)

"""Tests for Cells and the serial chain pipeline (section 5.3.2)."""

import pytest

from repro.core.bfpu import BinaryConfig
from repro.core.bitvector import BitVector
from repro.core.cell import Cell, CellConfig, cell_latency_cycles
from repro.core.kufpu import KUnaryConfig
from repro.core.operators import BinaryOp, RelOp, UnaryOp
from repro.core.pipeline import (
    FilterPipeline,
    PipelineConfig,
    PipelineParams,
    StageConfig,
)
from repro.core.smbm import SMBM
from repro.errors import ConfigurationError

CAP = 16


def build(rows: dict[int, tuple[int, int]]) -> SMBM:
    smbm = SMBM(CAP, ["x", "y"])
    for rid, (x, y) in rows.items():
        smbm.add(rid, {"x": x, "y": y})
    return smbm


def pred(attr, rel, val, k=1):
    return KUnaryConfig(UnaryOp.PREDICATE, k=k, attr=attr, rel_op=RelOp(rel), val=val)


class TestCell:
    def test_bypass_cell_is_identity(self):
        smbm = build({0: (1, 1), 5: (2, 2)})
        cell = Cell(4, CellConfig.bypass())
        i1 = BitVector.from_indices(CAP, [0])
        i2 = BitVector.from_indices(CAP, [5])
        o1, o2 = cell.evaluate(i1, i2, smbm)
        assert (o1, o2) == (i1, i2)

    def test_two_independent_unary_ops(self):
        """Figure 13 example: two K-UFPU ops, BFPUs as muxes."""
        smbm = build({i: (i, 10 - i) for i in range(6)})
        cell = Cell(
            4,
            CellConfig(
                kufpu1=pred("x", "<", 3),
                kufpu2=pred("y", "<", 7),
                bfpu1=BinaryConfig.passthrough(0),
                bfpu2=BinaryConfig.passthrough(1),
            ),
        )
        full = smbm.id_vector()
        o1, o2 = cell.evaluate(full, full, smbm)
        assert set(o1.indices()) == {0, 1, 2}
        assert set(o2.indices()) == {4, 5}

    def test_binary_over_raw_inputs(self):
        """K-UFPUs no-op, BFPU1 does the set op (Figure 13 example 2)."""
        smbm = build({i: (0, 0) for i in range(6)})
        cell = Cell(
            4, CellConfig(bfpu1=BinaryConfig(BinaryOp.INTERSECTION))
        )
        i1 = BitVector.from_indices(CAP, [1, 2, 3])
        i2 = BitVector.from_indices(CAP, [2, 3, 4])
        o1, _o2 = cell.evaluate(i1, i2, smbm)
        assert set(o1.indices()) == {2, 3}

    def test_fused_unary_and_binary(self):
        """The Figure 14 stage-1 pattern: two predicates intersected."""
        smbm = build({i: (i, 10 - i) for i in range(8)})
        cell = Cell(
            4,
            CellConfig(
                kufpu1=pred("x", "<", 5),
                kufpu2=pred("y", "<", 8),
                bfpu1=BinaryConfig(BinaryOp.INTERSECTION),
            ),
        )
        full = smbm.id_vector()
        o1, _ = cell.evaluate(full, full, smbm)
        # x < 5: {0..4}; y < 8: {3..7}; intersection: {3, 4}
        assert set(o1.indices()) == {3, 4}

    def test_input_swap(self):
        smbm = build({0: (1, 1), 5: (2, 2)})
        cell = Cell(4, CellConfig(input_swap=True))
        i1 = BitVector.from_indices(CAP, [0])
        i2 = BitVector.from_indices(CAP, [5])
        o1, o2 = cell.evaluate(i1, i2, smbm)
        assert (o1, o2) == (i2, i1)

    def test_latency(self):
        assert cell_latency_cycles(4) == 9  # 4 UFPUs * 2 cycles + 1 BFPU cycle
        cell = Cell(4, CellConfig.bypass())
        assert cell.latency_cycles == 9


class TestPipelineParams:
    def test_defaults_match_paper(self):
        p = PipelineParams()
        assert (p.n, p.k, p.f, p.chain_length) == (4, 4, 2, 4)

    def test_odd_n_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineParams(n=3)

    def test_bad_k_f_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineParams(k=0)
        with pytest.raises(ConfigurationError):
            PipelineParams(f=0)

    def test_latency(self):
        assert PipelineParams(n=4, k=3, chain_length=4).latency_cycles == 27


def single_stage_config(wiring, cells):
    return PipelineConfig(stages=[StageConfig(wiring=wiring, cells=cells)])


class TestFilterPipeline:
    def test_stage_count_validated(self):
        params = PipelineParams(n=2, k=2, chain_length=2)
        with pytest.raises(ConfigurationError):
            FilterPipeline(params, single_stage_config({}, [CellConfig.bypass()]))

    def test_cell_count_validated(self):
        params = PipelineParams(n=4, k=1, chain_length=2)
        with pytest.raises(ConfigurationError):
            FilterPipeline(params, single_stage_config({}, [CellConfig.bypass()]))

    def test_default_inputs_are_full_table(self):
        params = PipelineParams(n=2, k=1, chain_length=2)
        config = single_stage_config({0: 0, 1: 1}, [CellConfig.bypass()])
        pipe = FilterPipeline(params, config)
        smbm = build({1: (0, 0), 4: (0, 0)})
        out = pipe.evaluate(smbm)
        assert set(out[0].indices()) == {1, 4}
        assert set(out[1].indices()) == {1, 4}

    def test_unwired_port_is_empty_table(self):
        params = PipelineParams(n=2, k=1, chain_length=2)
        config = single_stage_config({0: 0}, [CellConfig.bypass()])
        pipe = FilterPipeline(params, config)
        smbm = build({1: (0, 0)})
        out = pipe.evaluate(smbm)
        assert not out[0].is_empty()
        assert out[1].is_empty()

    def test_explicit_inputs(self):
        params = PipelineParams(n=2, k=1, chain_length=2)
        config = single_stage_config({0: 1, 1: 0}, [CellConfig.bypass()])
        pipe = FilterPipeline(params, config)
        smbm = build({i: (0, 0) for i in range(4)})
        i0 = BitVector.from_indices(CAP, [0])
        i1 = BitVector.from_indices(CAP, [1])
        out = pipe.evaluate(smbm, [i0, i1])
        assert set(out[0].indices()) == {1}
        assert set(out[1].indices()) == {0}

    def test_input_width_validated(self):
        params = PipelineParams(n=2, k=1, chain_length=2)
        config = single_stage_config({}, [CellConfig.bypass()])
        pipe = FilterPipeline(params, config)
        smbm = build({0: (0, 0)})
        with pytest.raises(ConfigurationError):
            pipe.evaluate(smbm, [BitVector.zeros(4), BitVector.zeros(4)])
        with pytest.raises(ConfigurationError):
            pipe.evaluate(smbm, [BitVector.zeros(CAP)])

    def test_two_stage_serial_chain(self):
        """Stage 1 filters x < 8; stage 2 takes min y of the survivors."""
        params = PipelineParams(n=2, k=2, f=2, chain_length=2)
        stage1 = StageConfig(
            wiring={0: 0},
            cells=[CellConfig(kufpu1=pred("x", "<", 8))],
        )
        stage2 = StageConfig(
            wiring={0: 0},
            cells=[CellConfig(kufpu1=KUnaryConfig(UnaryOp.MIN, attr="y"))],
        )
        pipe = FilterPipeline(params, PipelineConfig(stages=[stage1, stage2]))
        smbm = build({0: (9, 1), 1: (5, 7), 2: (3, 4), 3: (6, 2)})
        out = pipe.evaluate(smbm)
        # x < 8 keeps {1, 2, 3}; min y among them is id 3 (y=2).
        assert set(out[0].indices()) == {3}

    def test_fanout_violation_rejected_at_construction(self):
        params = PipelineParams(n=4, k=1, f=1, chain_length=2)
        config = single_stage_config(
            {0: 0, 1: 0},
            [CellConfig.bypass(), CellConfig.bypass()],
        )
        with pytest.raises(Exception):
            FilterPipeline(params, config)

    def test_pruned_plan_and_liveness_lints_follow_the_input_swap(self):
        """One reachability pass, two readers.  Stage 2's swapped Cell
        feeds its first unit from port 1, so the line port 1 taps stays
        live and the one port 0 taps is pruned: the plan skips the Cell
        driving it, the verifier flags that Cell's programmed unit
        (TH001), and the pruned output equals the all-live pipeline's."""
        from repro.analysis import PlanVerifier

        params = PipelineParams(n=4, k=2, f=2, chain_length=2)
        stage1 = StageConfig(
            wiring={0: 0, 2: 1},
            cells=[CellConfig(kufpu1=pred("x", "<", 8)),
                   CellConfig(kufpu1=pred("y", ">", 3))],
        )
        stage2 = StageConfig(
            wiring={0: 0, 1: 2},
            cells=[CellConfig(input_swap=True,
                              kufpu1=KUnaryConfig(UnaryOp.MIN, attr="x")),
                   CellConfig.bypass()],
        )
        config = PipelineConfig(stages=[stage1, stage2])
        pruned = FilterPipeline(params, config, live_outputs=[0])
        assert pruned.active_cells() == [(1, 1), (2, 0)]
        smbm = build({0: (9, 1), 1: (5, 7), 2: (3, 4), 3: (6, 2)})
        # y > 3 keeps {1, 2}; min x among them is id 2.
        assert set(pruned.evaluate(smbm)[0].indices()) == {2}
        assert pruned.evaluate(smbm)[0] == FilterPipeline(
            params, config).evaluate(smbm)[0]
        report = PlanVerifier(params).verify_config(config, live_outputs=[0])
        assert [(f.rule, f.stage, f.cell) for f in report.findings] == [
            ("TH001", 1, 0),
        ]

"""Core contribution of the paper: the chained multi-dimensional filter module.

This package models every hardware block of Thanos's filter module
(SIGCOMM 2022, section 5):

* :class:`~repro.core.smbm.SMBM` — the Sorted Multidimensional Bidirectional
  Map resource table (section 5.1);
* :class:`~repro.core.ufpu.UFPU` and :class:`~repro.core.bfpu.BFPU` — the two
  programmable filter processing units (section 5.2);
* :class:`~repro.core.kufpu.KUFPU` — the programmable parallel chain pipeline
  (section 5.3.1);
* :class:`~repro.core.cell.Cell` and
  :class:`~repro.core.pipeline.FilterPipeline` — the programmable serial chain
  pipeline built from Cells and Benes crossbars (section 5.3.2);
* :class:`~repro.core.clocked.PipelineLatch` — the one clocked primitive the
  cycle-accurate tests latch a unit's ``evaluate`` in;
* :mod:`~repro.core.policy` and :mod:`~repro.core.compiler` — the policy
  abstraction (section 4) and its mapping onto the hardware pipeline;
* :mod:`~repro.core.area` — the analytical area and clock model used to
  reproduce Tables 1-4.

Every table flowing between the units is an N-bit vector indexed by
resource id (section 5.2.1), held as a raw int mask;
:class:`~repro.core.bitvector.BitVector` is only the value the public reads
(``CompiledPolicy.evaluate`` and its siblings) hand back.
"""

from repro.core.bitvector import BitVector
from repro.core.smbm import SMBM
from repro.core.operators import UnaryOp, BinaryOp, RelOp
from repro.core.ufpu import UFPU, UnaryConfig
from repro.core.bfpu import BFPU, BinaryConfig
from repro.core.kufpu import KUFPU, KUnaryConfig
from repro.core.cell import Cell
from repro.core.pipeline import FilterPipeline, PipelineParams
from repro.core.policy import (
    Policy,
    TableRef,
    Unary,
    Binary,
    ParallelChain,
    Conditional,
    predicate,
    min_of,
    max_of,
    random_pick,
    round_robin,
    union,
    intersection,
    difference,
)
from repro.core.compiler import PolicyCompiler, CompiledPolicy

__all__ = [
    "BitVector",
    "SMBM",
    "UnaryOp",
    "BinaryOp",
    "RelOp",
    "UFPU",
    "UnaryConfig",
    "BFPU",
    "BinaryConfig",
    "KUFPU",
    "KUnaryConfig",
    "Cell",
    "FilterPipeline",
    "PipelineParams",
    "Policy",
    "TableRef",
    "Unary",
    "Binary",
    "ParallelChain",
    "Conditional",
    "predicate",
    "min_of",
    "max_of",
    "random_pick",
    "round_robin",
    "union",
    "intersection",
    "difference",
    "PolicyCompiler",
    "CompiledPolicy",
]

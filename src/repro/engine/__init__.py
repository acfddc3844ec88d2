"""Batched columnar evaluation and per-policy codegen.

The engine is the throughput tier above the per-packet fast path:

* :class:`~repro.engine.batch.PacketBatch` — the columnar
  (struct-of-arrays) packet buffer;
* :class:`~repro.engine.columnar.BatchedEvaluator` — interpreted batch
  evaluation over mask columns: :func:`repro.core.policy.fold` in the
  int-column domain;
* :class:`~repro.engine.codegen.PlanCodegen` — per-plan specialized flat
  scalar closures (the same fold, in a source-emitting domain), cached
  on ``(plan_hash, smbm.version)``.

Both are pure Python over int masks; nothing here imports an array
library (DESIGN.md, "What a domain supplies", has the measurement).
"""

from repro.engine.batch import (
    META_FILTER_INPUT,
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    META_FILTER_SELECTED,
    PacketBatch,
)
from repro.engine.codegen import PlanCodegen, generate_plan_source, plan_hash_of
from repro.engine.columnar import BatchedEvaluator

__all__ = [
    "PacketBatch",
    "BatchedEvaluator",
    "PlanCodegen",
    "generate_plan_source",
    "plan_hash_of",
    "META_FILTER_INPUT",
    "META_FILTER_OUTPUT",
    "META_FILTER_REQUEST",
    "META_FILTER_SELECTED",
]

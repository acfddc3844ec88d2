"""Batched columnar evaluation and per-policy codegen.

The engine is the throughput tier above the per-packet fast path:

* :class:`~repro.engine.batch.PacketBatch` — the columnar
  (struct-of-arrays) packet buffer;
* :class:`~repro.engine.codegen.PlanCodegen` — per-plan specialized flat
  scalar closures (:func:`repro.core.policy.fold` in a source-emitting
  domain), cached on ``(plan_hash, smbm.stamp)``: the one software
  lowering of every policy, for single rows and batch columns alike (a
  stateful one's kernel steps the units its owner constructs it with).

:mod:`repro.engine.columnar` (the same fold over int-mask columns) serves
no row.  Everything here is pure Python over int masks; nothing imports an
array library (DESIGN.md, "What a domain supplies", has the measurement).
"""

from repro.engine.batch import (
    META_FILTER_INPUT,
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    META_FILTER_SELECTED,
    PacketBatch,
)
from repro.engine.codegen import PlanCodegen, generate_plan_source, plan_hash_of

__all__ = [
    "PacketBatch",
    "PlanCodegen",
    "generate_plan_source",
    "plan_hash_of",
    "META_FILTER_INPUT",
    "META_FILTER_OUTPUT",
    "META_FILTER_REQUEST",
    "META_FILTER_SELECTED",
]

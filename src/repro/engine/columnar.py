"""Batched columnar policy evaluation over id-mask columns.

Serves no row; kept for the benchmark's import (``benchmarks/e2e/tracing.py``
wraps :meth:`BatchedEvaluator.evaluate_masks`).  ``FilterModule`` serves
masked batch rows with the policy's
:class:`~repro.engine.codegen.PlanCodegen` kernel, which is even with this
fold on wide columns and ahead of it on short ones (DESIGN.md, "Batched
engine & policy codegen").

The scalar fast path walks interpreted operator objects once *per packet*;
at batch sizes beyond a handful of packets, Python dispatch — not the
algorithm — dominates.  The batch tier runs :func:`repro.core.policy.fold`
once *per batch* instead, carrying a whole column of input masks through
every operator.  A column is a list of raw int masks, one per row
(:class:`IntColumnDomain`): the bit vectors the paper moves between filter
units, and each operator loops the rows through the same
:class:`~repro.core.smbm.MetricIndex` mask searches (the metric's sorted
list, in buckets, with its prefix masks) the scalar fast path uses.

:func:`evaluate_column` is the batch entry point behind
:class:`BatchedEvaluator`.  Legal exactly for policies
:func:`~repro.core.policy.stateless_blockers` clears.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.operators import BinaryOp, UnaryOp
from repro.core.policy import Policy, fold, stateless_blockers
from repro.core.smbm import SMBM
from repro.errors import ConfigurationError

__all__ = ["BatchedEvaluator", "IntColumnDomain", "evaluate_column"]


class IntColumnDomain:
    """Fold domain: a column is a list of raw int masks, one per row;
    ``base`` is the candidate-restricted table column."""

    def __init__(self, smbm: SMBM, base: list[int]):
        self._smbm = smbm
        self._base = base
        self._full = (1 << smbm.capacity) - 1

    def table(self, node):
        return self._base

    def predicate(self, node, child):
        cfg = node.config
        sat = self._smbm.metric_index(cfg.attr).predicate_mask(
            cfg.rel_op, cfg.val, self._full
        )
        return [c & sat for c in child]

    def select(self, node, child):
        cfg = node.config
        select = self._smbm.metric_index(cfg.attr).select_mask
        largest = cfg.opcode is UnaryOp.MAX
        return [select(c, cfg.k, largest) for c in child]

    def binary(self, node, left, right):
        if node.opcode is BinaryOp.UNION:
            return [a | b for a, b in zip(left, right)]
        if node.opcode is BinaryOp.INTERSECTION:
            return [a & b for a, b in zip(left, right)]
        return [a & ~b for a, b in zip(left, right)]

    def conditional(self, node, primary, fallback):
        return [p if p else f for p, f in zip(primary, fallback)]


def evaluate_column(policy: Policy, smbm: SMBM,
                    masks: Sequence[int]) -> list[int]:
    """One output mask per input mask, against the current table.

    Each input mask is first intersected with the table's presence mask —
    the mask names the candidate subset of the *stored* resources the
    policy may consider for that row.
    """
    if not masks:
        return []
    present = smbm.id_mask()
    return fold(policy, IntColumnDomain(smbm, [present & m for m in masks]))


# -- the interpreted batch tier ---------------------------------------------------


class BatchedEvaluator:
    """Columnar DAG evaluation of one stateless policy.

    Construction rejects policies the columnar semantics cannot express:
    stateful operators (their outputs advance per packet, so per-batch
    evaluation would change meaning) and explicitly-indexed table inputs
    (their tables arrive from the caller per packet, not from the SMBM).
    """

    def __init__(self, policy: Policy, capacity: int):
        blockers = stateless_blockers(policy)
        if blockers:
            raise ConfigurationError(
                "batched evaluation requires a stateless policy: "
                + "; ".join(blockers)
            )
        self._policy = policy
        self._capacity = capacity

    @property
    def policy(self) -> Policy:
        return self._policy

    def evaluate_masks(self, smbm: SMBM, masks: Sequence[int]) -> list[int]:
        """:func:`evaluate_column` of this evaluator's policy."""
        if smbm.capacity != self._capacity:
            raise ConfigurationError(
                f"evaluator built for capacity {self._capacity}, "
                f"table has {smbm.capacity}"
            )
        return evaluate_column(self._policy, smbm, masks)

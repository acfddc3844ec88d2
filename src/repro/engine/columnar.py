"""Batched columnar policy evaluation over id-mask columns.

The scalar fast path walks interpreted operator objects once *per packet*;
at batch sizes beyond a handful of packets, Python dispatch — not the
algorithm — dominates.  The batch tier runs :func:`repro.core.policy.fold`
once *per batch* instead, carrying a whole column of input masks through
every operator.  The two column representations are the two fold domains
defined here:

* :class:`BoolMatrixDomain` (numpy, the optional ``repro[batch]`` extra):
  a column is a dense boolean matrix ``[B, capacity]`` and each operator
  is a handful of vectorised array ops — a predicate is one AND against a
  satisfying-ids row vector, min/max-k is a cumulative sum over
  rank-ordered columns;
* :class:`IntColumnDomain`: a column is a list of raw int masks and each
  operator loops the rows through the same
  :class:`~repro.core.smbm.MetricIndex` bisect primitives the scalar fast
  path uses.

:func:`evaluate_column` picks between them by batch size and is the one
batch entry point :class:`BatchedEvaluator` and the codegen tier's
:meth:`~repro.engine.codegen.PlanCodegen.evaluate_masks` share.  Legal
exactly for policies :func:`~repro.core.policy.stateless_blockers` clears.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.operators import BinaryOp, RelOp
from repro.core.policy import Policy, fold, stateless_blockers
from repro.core.smbm import SMBM
from repro.engine import _np
from repro.errors import ConfigurationError

__all__ = [
    "BatchedEvaluator",
    "BoolMatrixDomain",
    "IntColumnDomain",
    "evaluate_column",
    "MIN_NUMPY_ROWS",
    "masks_to_matrix",
    "matrix_to_masks",
    "select_k_ranked",
]

#: Below this many rows the numpy lane's fixed costs (packing, array
#: allocation) outweigh the vectorisation win; the int-mask lane runs.
MIN_NUMPY_ROWS = 8


# -- column primitives ------------------------------------------------------------


def masks_to_matrix(np, masks: Sequence[int], capacity: int):
    """Raw int masks -> dense bool matrix ``[len(masks), capacity]``."""
    nbytes = (capacity + 7) // 8
    buf = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    arr = np.frombuffer(buf, dtype=np.uint8).reshape(len(masks), nbytes)
    bits = np.unpackbits(arr, axis=1, bitorder="little")[:, :capacity]
    return bits.astype(bool)


def matrix_to_masks(np, matrix) -> list[int]:
    """Dense bool matrix -> one raw int mask per row."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def select_k_ranked(np, column, ids, k: int, reverse: bool):
    """The k lowest-rank (or highest, when ``reverse``) entries per row.

    ``column`` is a bool matrix ``[B, capacity]`` indexed by id;
    ``ids`` is the metric's rank-ordered id array
    (:attr:`~repro.core.smbm.MetricIndex.ids`).  Reordering the columns
    into rank order turns "k smallest values" into "first k set bits",
    which a cumulative sum answers for the whole batch at once — the
    columnar analogue of the K-UFPU chain's Equation 1 iteration.
    """
    ranked = column[:, ids]
    if reverse:
        ranked = ranked[:, ::-1]
    selected = ranked & (np.cumsum(ranked, axis=1) <= k)
    if reverse:
        selected = selected[:, ::-1]
    out = np.zeros_like(column)
    out[:, ids] = selected
    return out


def select_k_scalar(pick, bits: int, k: int) -> int:
    """Equation 1 on one raw int mask: union of k select-and-strip rounds.

    ``pick`` is a bound :meth:`~repro.core.smbm.MetricIndex.min_mask` or
    :meth:`~repro.core.smbm.MetricIndex.max_mask`.
    """
    acc = 0
    cur = bits
    for _ in range(k):
        one = pick(cur)
        if not one:
            break
        acc |= one
        cur &= ~one
    return acc


# -- the two column domains ---------------------------------------------------------


class _ColumnDomain:
    """What both column domains share: the candidate-restricted base
    column is the table, and a predicate's satisfying set is one raw int
    mask from the metric's :class:`~repro.core.smbm.MetricIndex`."""

    def __init__(self, smbm: SMBM, base):
        self._smbm = smbm
        self._base = base
        self._full = (1 << smbm.capacity) - 1

    def table(self):
        return self._base

    def _satisfying(self, attr: str, rel_op: RelOp, val: int) -> int:
        return self._smbm.metric_index(attr).predicate_mask(
            rel_op, val, self._full
        )


class IntColumnDomain(_ColumnDomain):
    """Fold domain: a column is a list of raw int masks, one per row."""

    def predicate(self, child, attr: str, rel_op: RelOp, val: int):
        sat = self._satisfying(attr, rel_op, val)
        return [c & sat for c in child]

    def select(self, child, attr: str, k: int, largest: bool):
        index = self._smbm.metric_index(attr)
        pick = index.max_mask if largest else index.min_mask
        return [select_k_scalar(pick, c, k) for c in child]

    def binary(self, op: BinaryOp, left, right):
        if op is BinaryOp.UNION:
            return [a | b for a, b in zip(left, right)]
        if op is BinaryOp.INTERSECTION:
            return [a & b for a, b in zip(left, right)]
        return [a & ~b for a, b in zip(left, right)]

    def conditional(self, primary, fallback):
        return [p if p else f for p, f in zip(primary, fallback)]


class BoolMatrixDomain(_ColumnDomain):
    """Fold domain: a column is a dense bool matrix ``[B, capacity]``
    (``base`` from :func:`masks_to_matrix`)."""

    def predicate(self, child, attr: str, rel_op: RelOp, val: int):
        sat = self._satisfying(attr, rel_op, val)
        row = masks_to_matrix(_np.numpy, (sat,), self._smbm.capacity)[0]
        return child & row

    def select(self, child, attr: str, k: int, largest: bool):
        np = _np.numpy
        ids = np.asarray(self._smbm.metric_index(attr).ids, dtype=np.intp)
        return select_k_ranked(np, child, ids, k, largest)

    def binary(self, op: BinaryOp, left, right):
        if op is BinaryOp.UNION:
            return left | right
        if op is BinaryOp.INTERSECTION:
            return left & right
        return left & ~right

    def conditional(self, primary, fallback):
        non_empty = primary.any(axis=1)[:, None]
        return _np.numpy.where(non_empty, primary, fallback)


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
    base = [present & m for m in masks]
    if _np.HAVE_NUMPY and len(base) >= MIN_NUMPY_ROWS:
        np = _np.numpy
        matrix = masks_to_matrix(np, base, smbm.capacity)
        return matrix_to_masks(
            np, fold(policy, BoolMatrixDomain(smbm, matrix))
        )
    return fold(policy, IntColumnDomain(smbm, base))


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

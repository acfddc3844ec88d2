"""Abstract value domains for the symbolic policy analyzer.

The semantic analyses (:mod:`repro.analysis.symbolic`) reason about the
set of table rows a policy can possibly output — its *feasible region* —
without running a single packet.  Two domains carry that reasoning:

* :class:`IntervalSet` — a finite union of disjoint closed integer
  intervals over the stored metric word ``[0, 2**STORED_WORD_BITS - 1]``.
  Closed under meet (intersection), join (union) and complement, so every
  predicate shape (including ``NE``, which interval pairs cannot express)
  has an exact abstract transfer.
* :class:`Region` — a conjunction of per-metric :class:`IntervalSet`
  constraints (absent metric = unconstrained), plus an explicit bottom
  (``empty=True``).  A region over-approximates the rows a policy edge can
  carry: a concrete output row must satisfy *every* constraint, so an
  empty region proves the edge can never carry a row.

Both are immutable values: analyses share and compare them freely, and a
:class:`Region` embedded in a finding or a semantic diff can never be
mutated behind the report's back.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.core.operators import RelOp
from repro.core.smbm import STORED_WORD_BITS

__all__ = ["WORD_MAX", "IntervalSet", "Region"]

#: Largest value a stored metric word can hold — the universe bound of
#: every :class:`IntervalSet`.
WORD_MAX: int = (1 << STORED_WORD_BITS) - 1


def _normalize(
    intervals: Iterable[tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    """Clamp to the word universe, drop empties, sort, merge touching."""
    clamped = [
        (max(0, lo), min(WORD_MAX, hi))
        for lo, hi in intervals
        if lo <= hi and hi >= 0 and lo <= WORD_MAX
    ]
    clamped.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in clamped:
        if merged and lo <= merged[-1][1] + 1:
            prev_lo, prev_hi = merged[-1]
            merged[-1] = (prev_lo, max(prev_hi, hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


@dataclass(frozen=True)
class IntervalSet:
    """A finite union of disjoint, sorted, closed integer intervals.

    Always normalized: intervals are within ``[0, WORD_MAX]``, sorted,
    pairwise disjoint and non-adjacent — so structural equality is
    semantic equality.  Construct through the classmethods (or
    :meth:`of`), never the raw constructor, to keep the invariant.
    """

    intervals: tuple[tuple[int, int], ...] = ()

    # -- constructors ------------------------------------------------------------------

    @classmethod
    def of(cls, intervals: Iterable[tuple[int, int]]) -> "IntervalSet":
        return cls(_normalize(intervals))

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls(((0, WORD_MAX),))

    @classmethod
    def point(cls, value: int) -> "IntervalSet":
        return cls.of([(value, value)])

    @classmethod
    def from_predicate(cls, rel_op: RelOp, val: int) -> "IntervalSet":
        """The exact value set ``metric rel_op val`` admits.

        Out-of-word operands (rejected separately by rule TH003) still get
        a sound abstraction: ``EQ (2**w)`` is empty, ``NE (2**w)`` full.
        """
        if rel_op is RelOp.LT:
            return cls.of([(0, val - 1)])
        if rel_op is RelOp.LE:
            return cls.of([(0, val)])
        if rel_op is RelOp.GT:
            return cls.of([(val + 1, WORD_MAX)])
        if rel_op is RelOp.GE:
            return cls.of([(val, WORD_MAX)])
        if rel_op is RelOp.EQ:
            return cls.point(val)
        return cls.point(val).complement()  # NE

    # -- predicates --------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def is_full(self) -> bool:
        return self.intervals == ((0, WORD_MAX),)

    def covers(self, value: int) -> bool:
        """Membership test (binary search is overkill at policy sizes)."""
        return any(lo <= value <= hi for lo, hi in self.intervals)

    def issubset(self, other: "IntervalSet") -> bool:
        """True when every value of ``self`` is admitted by ``other``."""
        it = iter(other.intervals)
        cur = next(it, None)
        for lo, hi in self.intervals:
            while cur is not None and cur[1] < lo:
                cur = next(it, None)
            if cur is None or not (cur[0] <= lo and hi <= cur[1]):
                return False
        return True

    # -- lattice operations ------------------------------------------------------------

    def meet(self, other: "IntervalSet") -> "IntervalSet":
        """Set intersection (two-pointer over the sorted interval lists)."""
        out: list[tuple[int, int]] = []
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(tuple(out))  # already normalized by construction

    def join(self, other: "IntervalSet") -> "IntervalSet":
        """Set union."""
        return IntervalSet.of(self.intervals + other.intervals)

    def complement(self) -> "IntervalSet":
        """The word universe minus this set."""
        out: list[tuple[int, int]] = []
        cursor = 0
        for lo, hi in self.intervals:
            if cursor <= lo - 1:
                out.append((cursor, lo - 1))
            cursor = hi + 1
        if cursor <= WORD_MAX:
            out.append((cursor, WORD_MAX))
        return IntervalSet(tuple(out))

    # -- display -----------------------------------------------------------------------

    def describe(self) -> str:
        if self.is_empty:
            return "(empty)"
        if self.is_full:
            return "[*]"

        def bound(v: int) -> str:
            return "max" if v == WORD_MAX else str(v)

        return "|".join(
            f"[{bound(lo)}..{bound(hi)}]" for lo, hi in self.intervals
        )


@dataclass(frozen=True)
class Region:
    """A conjunction of per-metric value constraints, or bottom.

    ``constraints`` maps metric names to non-full, non-empty
    :class:`IntervalSet` values, sorted by name; an absent metric is
    unconstrained.  ``empty=True`` is the explicit bottom: no row can
    satisfy it (and ``constraints`` is then always ``()``).  Construct
    through :meth:`of` / :meth:`top` / :meth:`bottom` so the normal form
    (no full sets, no empty sets outside bottom) holds and equality is
    semantic.
    """

    constraints: tuple[tuple[str, IntervalSet], ...] = ()
    empty: bool = False

    # -- constructors ------------------------------------------------------------------

    @classmethod
    def top(cls) -> "Region":
        return cls()

    @classmethod
    def bottom(cls) -> "Region":
        return cls(empty=True)

    @classmethod
    def of(cls, constraints: Mapping[str, IntervalSet]) -> "Region":
        kept: list[tuple[str, IntervalSet]] = []
        for name in sorted(constraints):
            values = constraints[name]
            if values.is_empty:
                return cls.bottom()
            if not values.is_full:
                kept.append((name, values))
        return cls(tuple(kept))

    # -- accessors ---------------------------------------------------------------------

    def get(self, metric: str) -> IntervalSet:
        for name, values in self.constraints:
            if name == metric:
                return values
        return IntervalSet.empty() if self.empty else IntervalSet.full()

    @property
    def constrained_metrics(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.constraints)

    def contains(self, row: Mapping[str, int]) -> bool:
        """Would a row with these metric values satisfy the region?

        Metrics the row does not carry are treated as unconstrained (the
        SMBM stores every schema metric for every row, so this only
        matters for partial rows in tests).
        """
        if self.empty:
            return False
        return all(
            values.covers(row[name])
            for name, values in self.constraints
            if name in row
        )

    # -- lattice operations ------------------------------------------------------------

    def meet(self, other: "Region") -> "Region":
        if self.empty or other.empty:
            return Region.bottom()
        merged = dict(self.constraints)
        for name, values in other.constraints:
            mine = merged.get(name)
            merged[name] = values if mine is None else mine.meet(values)
        return Region.of(merged)

    def join(self, other: "Region") -> "Region":
        if self.empty:
            return other
        if other.empty:
            return self
        mine = dict(self.constraints)
        theirs = dict(other.constraints)
        joined = {
            name: mine[name].join(theirs[name])
            for name in mine.keys() & theirs.keys()
        }
        return Region.of(joined)

    # -- display -----------------------------------------------------------------------

    def describe(self) -> str:
        if self.empty:
            return "(empty region)"
        if not self.constraints:
            return "(unconstrained)"
        return " & ".join(
            f"{name}:{values.describe()}" for name, values in self.constraints
        )

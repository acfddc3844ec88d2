"""Sorted Multidimensional Bidirectional Map (section 5.1).

The SMBM is Thanos's hardware resource table.  For N resources with M
metrics it keeps **M+1 flat sorted lists** — one for the resource id
(primary attribute) and one per metric — with a **bidirectional mapping**
between the id dimension and every metric dimension: each id entry points at
its M metric entries, and each metric entry points back at its id entry.

Hardware properties modelled here:

* lists are sorted in increasing order, equal values kept in enqueue (FIFO)
  order (section 5.1);
* ``add`` and ``delete`` each take exactly **two clock cycles** — cycle one
  searches all lists in parallel for the affected positions, cycle two
  performs the shift-and-write — and are **fully pipelined**, one write
  retired per cycle (section 5.1.2-5.1.3);
* writes commit **atomically in the second cycle**, so a read issued in any
  cycle observes either the pre-write or post-write table, never a torn
  state (section 5.1.4);
* the whole structure is readable **every cycle** in parallel with writes,
  because every list lives in flip-flops rather than SRAM (section 5.1.3).

:class:`SMBM` is the functional model (every method completes immediately,
used on the packet fast path of the network simulator);
:class:`ClockedSMBM` wraps it with the cycle-accurate write pipeline used by
the hardware-behaviour tests.
"""

from __future__ import annotations

import bisect
from itertools import accumulate
from operator import index as as_int, or_
from typing import Mapping, Sequence

from repro import obs
from repro.core.bitvector import BitVector
from repro.core.clocked import PipelineLatch
from repro.core.operators import RelOp
from repro.errors import (
    CapacityError,
    ConfigurationError,
    IntegrityError,
    SimulationError,
)

__all__ = ["SMBM", "MetricIndex", "ClockedSMBM", "WRITE_LATENCY_CYCLES",
           "STORED_WORD_BITS"]

#: Latency, in clock cycles, of the add and delete primitives (section 5.1.3).
WRITE_LATENCY_CYCLES = 2

#: Width of one stored metric word in the fault model: every metric value is
#: held in a 64-bit flip-flop word, so single-event upsets flip one of these
#: 64 bits.  The ECC model in :mod:`repro.faults.ecc` protects exactly this
#: word.  A write refuses any value outside ``[0, 2**STORED_WORD_BITS)``,
#: the region the analyser, TH003 and the ECC word all assume.
STORED_WORD_BITS = 64
_WORD_LIMIT = 1 << STORED_WORD_BITS

#: Most moves a live :class:`MetricIndex` may have pending; one more and the
#: table drops it, so the next read is a full build.  This is a measured
#: crossover, not a tunable: at N=1024 a uniformly random update moves a row
#: ~N/3 ranks and patches in ~21 us, a build takes ~150 us, so six pending
#: moves stay under what the build costs (seven reach it; CHANGES.md,
#: PR 14, PR 15 and PR 21).  It also bounds what a write burst nobody reads
#: can queue: six tuples per index, then nothing.
PENDING_LIMIT = 6


class MetricIndex:
    """Rank/mask arrays over one metric dimension: the read fast path.

    Two parallel arrays over the metric's sorted flat list of
    (value, seq, id) entries, ``n`` of them:

    * ``values[r]`` — the value of the entry at rank ``r`` (sorted, FIFO
      ties), so a relational bound becomes a :func:`bisect` over ranks;
    * ``prefix[r]`` — id-bitmask (plain int) of entries with rank < ``r``,
      for ``r`` in ``0..n``.  The entries with rank >= ``r`` are
      ``prefix[n] ^ prefix[r]``, so no second mask array is kept.

    A predicate ``attr ∘ val`` is then two bisects plus
    ``prefix[hi] & ~prefix[lo] & input``; min/max are a binary search for
    the lowest/highest rank whose below-/at-or-above-rank mask intersects
    the input — O(log N) integer ANDs instead of an O(N) Python tuple scan.
    Equation 1's K-select (:meth:`select_mask`) is the same search with a
    popcount in place of the truthiness test: one bisect for the rank cut
    that leaves k of the input's ids on the wanted side, not K picks.
    This is the software analogue of the hardware evaluating against the
    already-sorted flip-flop lists every cycle.

    **A write patches the index, it does not replace it.**  The hardware
    list stays readable while a 2-cycle write shifts the entries between
    the old and the new position (section 5.1.3); the index does the same.
    The owning :class:`SMBM` appends one *move* ``(a, b, id, value)`` per
    committed write to :attr:`pending` — ``a`` the rank the row left
    (``None`` for an add), ``b`` the rank it took in the list without its
    old entry (``None`` for a delete) — and :meth:`SMBM.metric_index`
    applies them in order on the next read.  An index is current iff
    ``pending`` is empty.

    The move rule.  Let ``bit = 1 << id``.  A row going from rank ``a`` to
    rank ``b`` leaves every mask outside the ranks in between untouched
    (the first ``r`` entries are the same *set* for ``r <= min(a, b)`` and
    ``r > max(a, b)``), and between them each mask is its neighbour's
    with the row's bit flipped:

    * ``a < b`` (entries ``a+1..b`` slide down one rank): for ``r`` in
      ``a+1..b``, ``prefix'[r] = prefix[r+1] ^ bit``;
    * ``b < a`` (entries ``b..a-1`` slide up): for ``r`` in ``b+1..a``,
      ``prefix'[r] = prefix[r-1] ^ bit``.

    So an update costs ``|a - b|`` mask XORs, zero when the row keeps its
    rank.  That is why :meth:`SMBM.update` is recorded as *one* move
    although it commits as delete + add: taken apart, the delete must
    clear the row's bit from every ``prefix`` above ``a`` and the add must
    set it again in every one above ``b`` — up to ``n`` XORs each, whatever
    the distance.  A lone add or delete pays that (still no re-sort, no
    list rebuilt).

    Nothing may hold a ``MetricIndex`` across a table write: the arrays
    change under it on the next :meth:`SMBM.metric_index` call, and an
    index dropped by the table (pending overflow, repair, fault injection,
    restore) is never patched again.  Re-fetch per use, as every evaluator
    does; what *may* be kept is anything keyed on :attr:`SMBM.version`.
    """

    __slots__ = ("values", "prefix", "pending")

    def __init__(self, entries: Sequence[tuple[int, int, int]]):
        self.values = [value for value, _seq, _rid in entries]
        self.prefix = list(
            accumulate((1 << rid for _value, _seq, rid in entries), or_,
                       initial=0)
        )
        #: Moves committed to the table since the arrays were last current,
        #: oldest first (written by :class:`SMBM`, drained by
        #: :meth:`apply_pending`).
        self.pending: list[tuple[int | None, int | None, int, int]] = []

    def apply_pending(self) -> int:
        """Bring the arrays up to the table; returns the moves applied."""
        values, prefix = self.values, self.prefix
        for a, b, rid, value in self.pending:
            bit = 1 << rid
            if a is None:  # add at rank b: masks above b gain the row
                values.insert(b, value)
                prefix[b + 1:] = [m | bit for m in prefix[b:]]
            elif b is None:  # delete at rank a: the mirror image
                del values[a]
                prefix[a + 1:] = [m ^ bit for m in prefix[a + 2:]]
            else:  # update: only the ranks between a and b see the row move
                del values[a]
                values.insert(b, value)
                if a < b:
                    prefix[a + 1:b + 1] = [m ^ bit for m in prefix[a + 2:b + 2]]
                else:
                    prefix[b + 1:a + 1] = [m ^ bit for m in prefix[b:a]]
        applied = len(self.pending)
        self.pending.clear()
        return applied

    def __len__(self) -> int:
        return len(self.values)

    def predicate_mask(self, rel_op: RelOp, val: int, input_bits: int) -> int:
        """Ids from ``input_bits`` whose value satisfies ``value ∘ val``."""
        values = self.values
        n = len(values)
        if rel_op is RelOp.LT:
            lo, hi = 0, bisect.bisect_left(values, val)
        elif rel_op is RelOp.LE:
            lo, hi = 0, bisect.bisect_right(values, val)
        elif rel_op is RelOp.GT:
            lo, hi = bisect.bisect_right(values, val), n
        elif rel_op is RelOp.GE:
            lo, hi = bisect.bisect_left(values, val), n
        elif rel_op is RelOp.EQ:
            lo = bisect.bisect_left(values, val)
            hi = bisect.bisect_right(values, val)
        elif rel_op is RelOp.NE:
            lo = bisect.bisect_left(values, val)
            hi = bisect.bisect_right(values, val)
            prefix = self.prefix
            return (prefix[lo] | (prefix[-1] ^ prefix[hi])) & input_bits
        else:  # pragma: no cover - exhaustive over RelOp
            raise ConfigurationError(f"unhandled relational operator {rel_op}")
        return self.prefix[hi] & ~self.prefix[lo] & input_bits

    def min_mask(self, input_bits: int) -> int:
        """One-hot mask of the lowest-rank entry present in ``input_bits``.

        Binary search for the smallest rank prefix intersecting the input;
        at that point ``prefix[r] & input`` holds exactly the one id bit of
        the first valid entry (= the minimum, FIFO among equal values).
        """
        if not (self.prefix[-1] & input_bits):
            return 0
        lo, hi = 1, len(self.values)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.prefix[mid] & input_bits:
                hi = mid
            else:
                lo = mid + 1
        return self.prefix[lo] & input_bits

    def max_mask(self, input_bits: int) -> int:
        """One-hot mask of the highest-rank entry present in ``input_bits``.

        Mirror image of :meth:`min_mask`: the entries at or above rank
        ``r`` that the input holds are ``live & ~prefix[r]``, where ``live``
        is the input cut down to the ids the table has (the input may
        carry others, and ``~prefix[r]`` would keep them).  The last valid
        entry is the maximum (latest-enqueued among equal values), matching
        the reference path's last-one priority encoder.
        """
        prefix = self.prefix
        live = prefix[-1] & input_bits
        if not live:
            return 0
        lo, hi = 0, len(self.values) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if live & ~prefix[mid]:
                lo = mid
            else:
                hi = mid - 1
        return live & ~prefix[lo]

    def select_mask(self, input_bits: int, k: int, largest: bool) -> int:
        """The ``k`` lowest-rank (highest, when ``largest``) entries
        present in ``input_bits``: Equation 1's K-select, all of them when
        the input holds at most ``k``.

        ``prefix[r] & live`` gains at most one id per rank, so the
        smallest ``r`` at which it holds ``want`` ids holds exactly the
        ``want`` lowest-rank ones (none at ``r = 0``, for ``k = 0``) — one
        binary search, whatever ``k``.  The ``k`` highest are the input
        without its ``count - k`` lowest.  The single pick keeps the
        cheaper truthiness search of :meth:`min_mask` / :meth:`max_mask`.
        """
        if k == 1:
            return self.max_mask(input_bits) if largest else self.min_mask(input_bits)
        prefix = self.prefix
        live = prefix[-1] & input_bits
        count = live.bit_count()
        if count <= k:
            return live
        want = count - k if largest else k
        lo, hi = 0, len(self.values)
        while lo < hi:
            mid = (lo + hi) // 2
            if (prefix[mid] & live).bit_count() >= want:
                hi = mid
            else:
                lo = mid + 1
        lowest = prefix[lo] & live
        return live ^ lowest if largest else lowest


class SMBM:
    """Functional model of the Sorted Multidimensional Bidirectional Map.

    ``capacity`` is the hardware N (number of flip-flop rows per list);
    ``metric_names`` is the ordered schema of the M metric dimensions.
    """

    def __init__(
        self,
        capacity: int,
        metric_names: Sequence[str],
        *,
        sanitize: bool = False,
        tenant: str | None = None,
    ):
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        if not metric_names:
            raise ConfigurationError("SMBM needs at least one metric dimension")
        names = tuple(metric_names)
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate metric names: {names}")
        self._capacity = capacity
        self._metric_names = names
        # Forward map: id -> {metric: value}, plus the enqueue sequence used
        # as the FIFO tie-break key inside every sorted list.
        self._rows: dict[int, dict[str, int]] = {}
        self._seq: dict[int, int] = {}
        self._next_seq = 0
        # One flat sorted list per metric dimension.  Entries are
        # (value, enqueue_seq, id): the (value, seq) prefix is the sort key,
        # the trailing id is the reverse-map pointer back to the id dimension.
        self._metric_lists: dict[str, list[tuple[int, int, int]]] = {
            name: [] for name in names
        }
        # The id dimension: ids are unique, so plain sorted order suffices.
        self._id_list: list[int] = []
        # Presence bitmask over [0, capacity), maintained incrementally so
        # the pipeline's input table is an O(1) read.
        self._id_bits = 0
        # Monotonic write counter: bumped by every committed add/delete.
        # Readers key caches (memoized policy outputs, kernels) on it.
        self._version = 0
        # Live per-metric fast-path indexes, built on first read.  A write
        # appends its rank move to each one's pending list; whatever makes
        # that bookkeeping unsound (a rewrite outside add/delete) or dearer
        # than a fresh build (PENDING_LIMIT) just drops the index.
        self._indexes: dict[str, MetricIndex] = {}
        # Committed-write listeners (parity/ECC maintenance, replication
        # shims).  Writes are rare relative to reads, so the notify cost
        # stays off the packet fast path entirely.
        self._write_listeners: list = []
        # Sanitizer mode: every committed write re-checks the structural
        # invariants (sortedness, bidirectional map agreement, presence
        # mask).  O(N * M) per write, so strictly a debug/verification
        # mode — the read fast path is untouched either way.
        self._sanitize = sanitize
        if sanitize:
            self.add_write_listener(self._sanitize_listener)
        # Observability: writes and index rebuilds are rare relative to
        # reads, so they increment registry counters directly (no-ops under
        # the default null registry); occupancy/version are published by a
        # weakly-held collect hook only when a real registry is active.
        # A multi-tenant deployment passes ``tenant`` so every smbm_* series
        # splits per tenant and a neighbour's writes never pollute the view.
        self._tenant = tenant
        tlabels = {} if tenant is None else {"tenant": tenant}
        registry = obs.get_registry()
        self._obs_adds = registry.counter(
            "smbm_writes_total", {"op": "add", **tlabels},
            help="committed SMBM writes",
        )
        self._obs_deletes = registry.counter(
            "smbm_writes_total", {"op": "delete", **tlabels},
            help="committed SMBM writes",
        )
        self._obs_rebuilds = registry.counter(
            "smbm_index_rebuilds_total", tlabels or None,
            help="full O(N) MetricIndex builds (first read, pending "
                 "overflow, after a repair/restore)",
        )
        self._obs_patches = registry.counter(
            "smbm_index_patches_total", tlabels or None,
            help="table writes applied to a live MetricIndex in place",
        )
        if registry.enabled:
            registry.add_hook(self._obs_collect)

    def _obs_collect(self):
        """Collect hook: occupancy and version as aggregate samples."""
        tlabels = (
            () if self._tenant is None else (("tenant", self._tenant),)
        )
        yield obs.Sample("smbm_resources", len(self._rows), kind="gauge",
                         labels=tlabels,
                         help="resources currently stored across SMBMs")
        yield obs.Sample("smbm_version_total", self._version,
                         labels=tlabels,
                         help="committed writes (sum of version counters)")

    @property
    def tenant(self) -> str | None:
        """Owning tenant name under multi-tenant slicing (obs label)."""
        return self._tenant

    # -- schema / occupancy ----------------------------------------------------

    @property
    def capacity(self) -> int:
        """Hardware N: maximum number of resources."""
        return self._capacity

    @property
    def metric_names(self) -> tuple[str, ...]:
        """The M metric dimensions, in schema order."""
        return self._metric_names

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, resource_id: int) -> bool:
        return resource_id in self._rows

    @property
    def version(self) -> int:
        """Monotonic counter of committed writes (adds and deletes).

        Two reads bracketed by equal versions observed the identical table,
        so any value derived purely from the table may be reused between
        them — the basis of policy memoization and kernel specialization.
        """
        return self._version

    def is_full(self) -> bool:
        return len(self._rows) >= self._capacity

    # -- write primitives (section 5.1.2) ---------------------------------------

    def _checked_row(self, resource_id: int, metrics: Mapping[str, int]) -> dict[str, int]:
        """The row a write would store, or the error it must raise.

        Everything that can reject ``metrics`` runs here, before the first
        mutation, so a refused write leaves the table exactly as it was.
        """
        if not 0 <= resource_id < self._capacity:
            raise CapacityError(
                f"resource id {resource_id} out of range [0, {self._capacity}); "
                "ids index the bit-vector encoding so must be < N"
            )
        if set(metrics) != set(self._metric_names):
            raise ConfigurationError(
                f"metric set {sorted(metrics)} does not match schema "
                f"{sorted(self._metric_names)}"
            )
        try:
            row = {name: as_int(metrics[name]) for name in self._metric_names}
        except TypeError:
            raise ConfigurationError(
                f"metric values must be integers, got {dict(metrics)}"
            ) from None
        for name, value in row.items():
            if not 0 <= value < _WORD_LIMIT:
                raise ConfigurationError(
                    f"metric {name}={value} does not fit the unsigned "
                    f"{STORED_WORD_BITS}-bit stored word"
                )
        return row

    def add(self, resource_id: int, metrics: Mapping[str, int]) -> None:
        """``add(SMBM, id, [metric1: val1, ..., metricM: valM])``.

        Inserts a new entry keeping every dimension list sorted, with FIFO
        order among equal values, and installs the bidirectional pointers.
        """
        row = self._checked_row(resource_id, metrics)
        if resource_id in self._rows:
            raise ConfigurationError(
                f"resource id {resource_id} already present; "
                "update = delete followed by add"
            )
        if self.is_full():
            raise CapacityError(f"SMBM full: capacity {self._capacity}")
        self._commit_add(resource_id, row)

    def _insert(self, resource_id: int, row: dict[str, int], seq: int) -> None:
        """Store a row at FIFO position ``seq`` in every list and map."""
        self._rows[resource_id] = row
        self._seq[resource_id] = seq
        for name in self._metric_names:
            bisect.insort(self._metric_lists[name], (row[name], seq, resource_id))
        bisect.insort(self._id_list, resource_id)
        self._id_bits |= 1 << resource_id

    def _find(self, name: str, entry: tuple[int, int, int]) -> int:
        """Rank of ``entry`` in the ``name`` list; the reverse map must
        hold exactly the entry the forward map names."""
        lst = self._metric_lists[name]
        pos = bisect.bisect_left(lst, entry)
        if pos >= len(lst) or lst[pos] != entry:
            raise SimulationError(
                f"bidirectional map corrupted: {entry} missing from {name} list"
            )
        return pos

    def _rewrite(self, resource_id: int, name: str, value: int) -> None:
        """Rewrite a row's ``name`` word to ``value`` in place: the FIFO
        position stays, and the metric's index is dropped so the next
        read rebuilds against the new word."""
        row = self._rows[resource_id]
        seq = self._seq[resource_id]
        lst = self._metric_lists[name]
        del lst[self._find(name, (row[name], seq, resource_id))]
        bisect.insort(lst, (value, seq, resource_id))
        row[name] = value
        self._indexes.pop(name, None)

    def _commit_add(self, resource_id: int, row: dict[str, int]) -> None:
        seq = self._next_seq
        self._next_seq += 1
        self._insert(resource_id, row, seq)
        if self._indexes:
            self._record_move(resource_id, row, seq, added=True)
        self._version += 1
        self._obs_adds.inc()
        if self._write_listeners:
            snapshot = dict(row)
            for listener in self._write_listeners:
                listener("add", resource_id, snapshot)

    def delete(self, resource_id: int) -> None:
        """``delete(SMBM, id)`` — removes the entry if present (else no-op)."""
        row = self._rows.pop(resource_id, None)
        if row is None:
            return
        seq = self._seq.pop(resource_id)
        for name in self._metric_names:
            del self._metric_lists[name][
                self._find(name, (row[name], seq, resource_id))]
        pos = bisect.bisect_left(self._id_list, resource_id)
        del self._id_list[pos]
        self._id_bits &= ~(1 << resource_id)
        if self._indexes:
            self._record_move(resource_id, row, seq, added=False)
        self._version += 1
        self._obs_deletes.inc()
        if self._write_listeners:
            for listener in self._write_listeners:
                listener("delete", resource_id, None)

    def _record_move(self, resource_id: int, row: Mapping[str, int],
                     seq: int, *, added: bool) -> None:
        """Append a committed write's rank move to every live index.

        Runs after the lists moved, so one bisect finds the rank either
        way: where the entry now sits (add) or where it would go back
        (delete).  A delete that is still the newest pending move when the
        same id is added again is one update, and is rewritten as one move
        — ranks in between are touched once, not the whole array twice.
        """
        for name, index in list(self._indexes.items()):
            pending = index.pending
            value = row[name]
            rank = bisect.bisect_left(
                self._metric_lists[name], (value, seq, resource_id)
            )
            if added and pending and pending[-1][1:3] == (None, resource_id):
                pending[-1] = (pending[-1][0], rank, resource_id, value)
            elif len(pending) == PENDING_LIMIT:
                del self._indexes[name]
            elif added:
                pending.append((None, rank, resource_id, value))
            else:
                pending.append((rank, None, resource_id, value))

    def update(self, resource_id: int, metrics: Mapping[str, int]) -> None:
        """Composite update: delete followed by add, as the paper prescribes.

        Two committed writes (two version bumps, a fresh FIFO position),
        but all-or-nothing: the new row is checked before the old one goes.
        """
        if resource_id not in self._rows:
            self.add(resource_id, metrics)
            return
        row = self._checked_row(resource_id, metrics)
        self.delete(resource_id)
        self._commit_add(resource_id, row)

    @property
    def sanitize(self) -> bool:
        """True when every committed write re-checks the invariants."""
        return self._sanitize

    def _sanitize_listener(self, kind: str, resource_id: int, row) -> None:
        """Commit-time invariant check, installed when ``sanitize=True``."""
        try:
            self.check_invariants()
        except SimulationError as exc:
            raise IntegrityError(
                f"sanitizer: invariant violated after committed "
                f"{kind} of resource {resource_id}: {exc}",
                component="smbm",
                resource=resource_id,
            ) from exc

    def add_write_listener(self, listener) -> None:
        """Subscribe to committed writes: ``listener(kind, id, row)``.

        ``kind`` is ``"add"``, ``"delete"`` or ``"repair"``; ``row`` is a
        copy of the committed metric values (None for deletes).  Used by the
        parity/ECC layer to keep check words in lockstep with the table.
        """
        self._write_listeners.append(listener)

    # -- fault model (SEU injection and repair) ---------------------------------

    def corrupt_stored_bit(self, resource_id: int, metric: str, bit: int) -> tuple[int, int]:
        """Fault-injection backdoor: flip one bit of a stored metric word.

        Models a single-event upset in the flip-flop row holding the value:
        the stored word changes *in place* — subsequent hardware reads (the
        forward map and any rebuilt fast-path index) observe the corrupted
        value — but nothing that only a committed write would touch moves:
        the :attr:`version` counter stays put (so version-keyed caches keep
        serving pre-corruption results until a scrubber notices), write
        listeners are not notified (the parity word now *disagrees* with the
        stored word, which is exactly what detection keys on), and the FIFO
        enqueue order is preserved.

        Returns ``(old_value, new_value)``.
        """
        row = self._rows.get(resource_id)
        if row is None:
            raise ConfigurationError(f"no resource with id {resource_id}")
        if metric not in row:
            raise ConfigurationError(
                f"unknown metric {metric!r}; schema: {self._metric_names}"
            )
        if not 0 <= bit < STORED_WORD_BITS:
            raise ConfigurationError(
                f"bit {bit} outside the {STORED_WORD_BITS}-bit stored word"
            )
        old = row[metric]
        new = old ^ (1 << bit)
        # The corrupted flop is read from the next cycle on.
        self._rewrite(resource_id, metric, new)
        return old, new

    def repair_row(self, resource_id: int, corrected: Mapping[str, int]) -> list[str]:
        """Restore a row to ``corrected`` values in place (scrubber repair).

        Unlike :meth:`update` this preserves the row's FIFO enqueue order —
        an ECC correction rewrites the damaged word, it does not re-enqueue
        the resource.  The version counter is bumped (a repair is a
        committed write), which invalidates every version-keyed cache —
        policy memos recompute on the next read — and the indexes of the
        repaired metrics are dropped, so they rebuild.
        Returns the list of metric names whose stored value actually moved.
        """
        row = self._rows.get(resource_id)
        if row is None:
            raise ConfigurationError(f"no resource with id {resource_id}")
        if set(corrected) != set(self._metric_names):
            raise ConfigurationError(
                f"metric set {sorted(corrected)} does not match schema "
                f"{sorted(self._metric_names)}"
            )
        repaired: list[str] = []
        for name in self._metric_names:
            good = int(corrected[name])
            if row[name] == good:
                continue
            self._rewrite(resource_id, name, good)
            repaired.append(name)
        if repaired:
            self._version += 1
            if self._write_listeners:
                snapshot = dict(row)
                for listener in self._write_listeners:
                    listener("repair", resource_id, snapshot)
        return repaired

    # -- read interface (shared with the filter pipeline) -------------------------

    def ids(self) -> list[int]:
        """The id dimension list, in sorted order."""
        return list(self._id_list)

    def id_vector(self) -> BitVector:
        """Presence bit vector over [0, capacity): the pipeline's input table."""
        return BitVector.from_int(self._capacity, self._id_bits)

    def id_mask(self) -> int:
        """The presence bitmask as a raw int (the fast path's input table)."""
        return self._id_bits

    def metric_index(self, metric: str) -> MetricIndex:
        """The fast-path :class:`MetricIndex` for one metric dimension.

        Current as returned, and only until the next table write: a live
        index is handed back as is when nothing was written, patched in
        place with the moves written since the last read, or built in O(N)
        when the table holds none for this metric.
        """
        index = self._indexes.get(metric)
        if index is not None:
            if index.pending:
                self._obs_patches.inc(index.apply_pending())
            return index
        if metric not in self._metric_lists:
            raise ConfigurationError(
                f"unknown metric {metric!r}; schema: {self._metric_names}"
            )
        index = self._indexes[metric] = MetricIndex(self._metric_lists[metric])
        self._obs_rebuilds.inc()
        return index

    def metric_of(self, resource_id: int, metric: str) -> int:
        """Forward map: id -> metric value."""
        try:
            row = self._rows[resource_id]
        except KeyError:
            raise ConfigurationError(f"no resource with id {resource_id}") from None
        if metric not in row:
            raise ConfigurationError(
                f"unknown metric {metric!r}; schema: {self._metric_names}"
            )
        return row[metric]

    def metrics_of(self, resource_id: int) -> dict[str, int]:
        """Forward map: id -> all metric values (a row of the relational table)."""
        try:
            return dict(self._rows[resource_id])
        except KeyError:
            raise ConfigurationError(f"no resource with id {resource_id}") from None

    def attr_list(self, metric: str) -> list[tuple[int, int]]:
        """The sorted flat list of one metric dimension as (value, id) pairs.

        This is the list a UFPU copies into its ``temp_list`` in its first
        clock cycle; the id in each pair is the reverse-map pointer.
        """
        if metric not in self._metric_lists:
            raise ConfigurationError(
                f"unknown metric {metric!r}; schema: {self._metric_names}"
            )
        return [(value, rid) for (value, _seq, rid) in self._metric_lists[metric]]

    def rank_of(self, resource_id: int, metric: str) -> int:
        """Position of a resource's entry within a metric dimension list."""
        row = self._rows.get(resource_id)
        if row is None:
            raise ConfigurationError(f"no resource with id {resource_id}")
        return self._find(metric, (row[metric], self._seq[resource_id],
                                   resource_id))

    def check_invariants(self) -> None:
        """Assert structural invariants; used by property-based tests.

        * every dimension list is sorted (FIFO among equal values);
        * forward and reverse maps agree on every entry;
        * all lists have exactly one entry per stored resource;
        * every live fast-path index, brought up to date, equals one built
          from scratch in both arrays — so under ``sanitize=True`` a bad
          patch is an error at the write that caused it.
        """
        n = len(self._rows)
        if len(self._id_list) != n:
            raise SimulationError("id list length disagrees with row count")
        if self._id_list != sorted(self._id_list):
            raise SimulationError("id list not sorted")
        if self._id_bits != sum(1 << rid for rid in self._id_list):
            raise SimulationError("presence bitmask disagrees with id list")
        for name in self._metric_names:
            lst = self._metric_lists[name]
            if len(lst) != n:
                raise SimulationError(f"{name} list length disagrees with row count")
            if lst != sorted(lst):
                raise SimulationError(f"{name} list not sorted with FIFO ties")
            for value, seq, rid in lst:
                if rid not in self._rows:
                    raise SimulationError(f"{name} list points at absent id {rid}")
                if self._rows[rid][name] != value or self._seq[rid] != seq:
                    raise SimulationError(
                        f"forward/reverse maps disagree for id {rid} metric {name}"
                    )
        for name in self._indexes:
            index = self.metric_index(name)
            fresh = MetricIndex(self._metric_lists[name])
            for array in ("values", "prefix"):
                if getattr(index, array) != getattr(fresh, array):
                    raise SimulationError(
                        f"{name} fast-path index {array} disagree with the "
                        "sorted list"
                    )

    def snapshot(self) -> dict[int, dict[str, int]]:
        """A deep copy of the current relational contents (for testing)."""
        return {rid: dict(row) for rid, row in self._rows.items()}

    # -- checkpoint / restore (serving-layer state migration) ---------------------

    def export_state(self) -> dict[str, object]:
        """Bit-faithful state export for checkpoint/restore.

        Captures everything a restored table needs to be indistinguishable
        from this one: the stored metric words, the FIFO enqueue sequence
        (sorted-list tie-break order), the next sequence number, and the
        :attr:`version` counter.  The derived structures (sorted lists,
        presence mask, fast-path indexes) are *not* exported — they are
        rebuilt deterministically from the rows and sequence numbers, which
        is exactly how :meth:`check_invariants` defines consistency.
        """
        return {
            "capacity": self._capacity,
            "metric_names": list(self._metric_names),
            "rows": {rid: dict(row) for rid, row in self._rows.items()},
            "seq": dict(self._seq),
            "next_seq": self._next_seq,
            "version": self._version,
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore a state produced by :meth:`export_state`, in place.

        The capacity and metric schema must match this table's; everything
        else — rows, FIFO order, version counter — is overwritten.  Write
        listeners see one ``("delete", rid, None)`` per row dropped and one
        ``("restore", rid, row)`` per row present afterwards, so attached
        maintenance state (ECC check words, replication shims) resyncs in
        lockstep.  The table drops its own metric indexes; version-keyed
        caches held by *callers* (policy memos, specialized kernels) must
        be invalidated by the caller:
        the restored version counter may be **lower** than the current one,
        so version-keyed reuse across a restore is unsound — the serving
        layer's restore path does exactly that.
        """
        if state.get("capacity") != self._capacity:
            raise ConfigurationError(
                f"checkpoint capacity {state.get('capacity')} does not match "
                f"table capacity {self._capacity}"
            )
        if tuple(state.get("metric_names", ())) != self._metric_names:  # type: ignore[arg-type]
            raise ConfigurationError(
                f"checkpoint schema {state.get('metric_names')} does not "
                f"match table schema {list(self._metric_names)}"
            )
        rows = state["rows"]
        seqs = state["seq"]
        assert isinstance(rows, dict) and isinstance(seqs, dict)
        if set(rows) != set(seqs):
            raise ConfigurationError(
                "corrupt checkpoint state: row ids and sequence ids disagree"
            )
        if len(rows) > self._capacity:
            raise CapacityError(
                f"checkpoint holds {len(rows)} rows, table capacity is "
                f"{self._capacity}"
            )
        # Every row passes the write guard before anything is cleared, so
        # a refused state leaves the table as it was.
        checked = [(int(rid), self._checked_row(int(rid), row), int(seqs[rid]))
                   for rid, row in rows.items()]
        next_seq = int(state["next_seq"])  # type: ignore[arg-type]
        version = int(state["version"])  # type: ignore[arg-type]
        dropped = [rid for rid in self._rows if rid not in rows]
        self._indexes.clear()
        self._rows = {}
        self._seq = {}
        self._metric_lists = {name: [] for name in self._metric_names}
        self._id_list = []
        self._id_bits = 0
        for rid, row, seq in checked:
            self._insert(rid, row, seq)
        self._next_seq = next_seq
        self._version = version
        if self._write_listeners:
            for rid in dropped:
                for listener in self._write_listeners:
                    listener("delete", rid, None)
            for rid in self._id_list:
                row_copy = dict(self._rows[rid])
                for listener in self._write_listeners:
                    listener("restore", rid, row_copy)


class _WriteOp:
    """A pending write travelling through the 2-cycle write pipeline."""

    __slots__ = ("kind", "resource_id", "metrics")

    def __init__(self, kind: str, resource_id: int, metrics: Mapping[str, int] | None):
        self.kind = kind
        self.resource_id = resource_id
        self.metrics = metrics


class ClockedSMBM:
    """Cycle-accurate wrapper: 2-cycle pipelined writes, per-cycle reads.

    At most one write may be issued per cycle; it commits atomically on the
    tick that completes its second cycle.  ``read()`` may be called any
    number of times per cycle and always observes the committed state.
    """

    def __init__(self, capacity: int, metric_names: Sequence[str]):
        self._smbm = SMBM(capacity, metric_names)
        self._pipe: PipelineLatch[_WriteOp] = PipelineLatch(WRITE_LATENCY_CYCLES)
        self._cycle = 0
        self._commit_log: list[tuple[int, str, int]] = []

    @property
    def cycle(self) -> int:
        return self._cycle

    @property
    def commit_log(self) -> list[tuple[int, str, int]]:
        """(cycle, kind, resource_id) for every committed write, in order."""
        return list(self._commit_log)

    def issue_add(self, resource_id: int, metrics: Mapping[str, int]) -> None:
        """Present an add at the write port for the current cycle."""
        self._pipe.issue(_WriteOp("add", resource_id, dict(metrics)))

    def issue_delete(self, resource_id: int) -> None:
        """Present a delete at the write port for the current cycle."""
        self._pipe.issue(_WriteOp("delete", resource_id, None))

    def tick(self) -> None:
        """Clock edge: advance the write pipeline, committing a retiring op."""
        retiring = self._pipe.tick()
        if retiring is not None:
            if retiring.kind == "add":
                assert retiring.metrics is not None
                self._smbm.add(retiring.resource_id, retiring.metrics)
            else:
                self._smbm.delete(retiring.resource_id)
            self._commit_log.append((self._cycle, retiring.kind, retiring.resource_id))
        self._cycle += 1

    def read(self) -> SMBM:
        """The committed table (valid to read every cycle, during writes)."""
        return self._smbm

"""Sorted Multidimensional Bidirectional Map (section 5.1).

Thanos's resource table: for N resources with M metrics, **one sorted list
per metric dimension** and a **bidirectional mapping** between the id
dimension (the presence bitmask) and each of them — every id points at its
M entries (the forward map), every entry back at its id.  Modelled: lists
sorted ascending with FIFO order among equal values (5.1); ``add`` and
``delete`` take **two clock cycles** (search, then shift-and-write), fully
pipelined (5.1.2-5.1.3); writes commit **atomically** in the second cycle,
so a read never sees a torn table (5.1.4); every list is readable **every
cycle**, being flip-flops (5.1.3).

A UFPU reads the lists two ways (5.2.1): min, max and K-select through a
priority encoder over a :class:`MetricIndex` (the list in buckets), a
predicate through its comparator bank, :meth:`SMBM.predicate_set`.  Each is
built from the rows on its first read; then a committed write flips its
row's bit in the boundaries it crosses and in each set, as the flip-flops
shift.  A metric only predicates read has no list.  :class:`SMBM` is the
functional model; :class:`ClockedSMBM` adds the cycle-accurate write pipe.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, count
from math import isqrt
from operator import index as as_int, or_
from typing import Iterable, Mapping, Sequence

from repro import obs
from repro.core.bitvector import BitVector
from repro.core.clocked import PipelineLatch
from repro.core.operators import RelOp
from repro.errors import (CapacityError, ConfigurationError, IntegrityError,
                          SimulationError)

__all__ = ["SMBM", "MetricIndex", "ClockedSMBM", "WRITE_LATENCY_CYCLES",
           "STORED_WORD_BITS", "bucket_span"]

#: Latency, in clock cycles, of the add and delete primitives (section 5.1.3).
WRITE_LATENCY_CYCLES = 2

#: Bits of one stored metric word (what the analyser and TH003 assume).
#: Writes refuse values outside it, so ``value << 64 | seq`` (seq below
#: 2**64 too) is a sort key.
STORED_WORD_BITS = 64
_WORD_LIMIT = 1 << STORED_WORD_BITS

#: The one process-wide stamp count: every table's construction, commit
#: and restore draws the next, so no two tables share a stamp and a stamp
#: never comes back.
_next_stamp = count(1).__next__


def bucket_span(capacity: int) -> int:
    """B for ``capacity`` rows, from ``tools/index_costs.py``'s ``w+r``
    column: a write patches a third of ~N/B boundaries, a read bisects them
    and scans one bucket of at most 2B entries."""
    return max(4, isqrt(capacity))


def _bits(ids) -> int:
    """The id mask of ``ids``."""
    return sum(1 << rid for rid in ids)


def _boundaries(ids: list[list[int]]) -> list[int]:
    """The mask of the ids below each bucket boundary."""
    return list(accumulate(map(_bits, ids), or_, initial=0))


def _first(masks: list[int], bits: int) -> int:
    """The smallest ``r >= 1`` with ``masks[r] & bits`` (prefix masks), 1
    tried first: a dense input ends there."""
    lo, hi, mid = 1, len(masks) - 1, 1
    while lo < hi:
        if masks[mid] & bits:
            hi = mid
        else:
            lo = mid + 1
        mid = (lo + hi) // 2
    return lo


def _last(masks: list[int], live: int) -> int:
    """The largest ``r < len - 1`` with ``live & ~masks[r]`` non-empty,
    ``len - 2`` tried first: a dense input ends there."""
    lo, hi, mid = 0, len(masks) - 2, len(masks) - 2
    while lo < hi:
        if live & ~masks[mid]:
            lo = mid
        else:
            hi = mid - 1
        mid = (lo + hi + 1) // 2
    return lo


def _reach(masks: list[int], live: int, want: int, top: bool) -> int:
    """The smallest ``r >= 1`` with ``want`` ids of ``live`` in ``masks[r]``
    (bucket ``r - 1`` holds the ``want``-th), the end ``top`` names first."""
    lo, hi = 1, len(masks) - 1
    mid = hi - 1 if top else 1
    while lo < hi:
        if (masks[mid] & live).bit_count() >= want:
            hi = mid
        else:
            lo = mid + 1
        mid = (lo + hi) // 2
    return lo


def _encode(ids: Iterable[int], live: int, count: int) -> int:
    """The first ``count`` ids of ``ids`` that ``live`` names (all of
    ``live`` if it names no more): section 5.2.1's priority encoder."""
    if live.bit_count() <= count:
        return live
    out = 0
    for rid in ids:
        if not count:
            break
        if live >> rid & 1:
            out |= 1 << rid
            count -= 1
    return out


class MetricIndex:
    """One metric dimension's sorted list, in buckets, with its boundaries.

    Entries are int sort keys ``value << 64 | seq`` (FIFO ties inside the
    key) beside their ids: ``keys[i]``/``ids[i]`` are bucket ``i`` in rank
    order, ``maxes[i]`` its last key.  Buckets hold ``span``..``2*span``
    entries (the first 1..``2*span``), so there are ``<= ceil(n/span)``;
    ``below[i]`` masks the ids in buckets before ``i`` (``below[-1]``: the
    table).  A read bisects ``below`` for the bucket its answer ends in and
    scans it, from the front for the lowest ranks, the back for the highest:
    section 5.2.1's priority encoder over at most ``2*span`` entries.

    **A write patches the boundaries at commit**: its bit flips in the
    ``below`` words between the bucket it leaves and the one it enters, at
    most ``ceil(n/span) + 1`` words with splits and merges.  A bucket past
    ``2*span`` splits; one under ``span`` merges into, or borrows the last
    entry of, the bucket before it.
    """

    __slots__ = ("span", "keys", "ids", "maxes", "below")

    def __init__(self, entries: Sequence[tuple[int, int]], span: int):
        self.span = span
        self.fill(entries)

    def fill(self, entries: Sequence[tuple[int, int]]) -> None:
        """Lay out rank-ordered ``(key, id)`` pairs and build the boundaries."""
        n, span = len(entries), self.span
        cuts = [0, *range(n - (max(n - 1, 0) // span) * span, n + 1, span)]
        buckets = [entries[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        self.keys = [[key for key, _ in bucket] for bucket in buckets]
        self.ids = [[rid for _, rid in bucket] for bucket in buckets]
        self.maxes = [bucket[-1] for bucket in self.keys if bucket]
        self.below = _boundaries(self.ids)

    def rank(self, key: int) -> int:
        """How many entries sort before ``key``."""
        i = bisect_left(self.maxes, key)
        return sum(map(len, self.keys[:i])) + (
            bisect_left(self.keys[i], key) if i < len(self.maxes) else 0)

    def min_mask(self, input_bits: int) -> int:
        """One-hot mask of the lowest-rank entry in ``input_bits`` (FIFO
        among equal values): the first bucket meeting the input, scanned
        from its front."""
        below = self.below
        if not below[-1] & input_bits:
            return 0
        i = _first(below, input_bits) - 1
        return _encode(self.ids[i], below[i + 1] & input_bits, 1)

    def max_mask(self, input_bits: int) -> int:
        """One-hot mask of the highest-rank entry in ``input_bits`` (the
        latest-enqueued among equal values, as the last-one encoder picks):
        the last bucket meeting ``live``, the input cut to the table's ids,
        scanned from its back."""
        below = self.below
        live = below[-1] & input_bits
        if not live:
            return 0
        i = _last(below, live)
        return _encode(reversed(self.ids[i]), live & ~below[i], 1)

    def select_mask(self, input_bits: int, k: int, largest: bool) -> int:
        """Equation 1's K-select: the ``k`` lowest-rank (``largest``:
        highest) entries in ``input_bits``, all if it holds at most ``k``: a
        bisect finds the bucket the ``k``-th ends in, the live ids past it
        are taken, and one scan of it from that side takes the rest."""
        if k == 1:
            return self.max_mask(input_bits) if largest else self.min_mask(input_bits)
        below = self.below
        live = below[-1] & input_bits
        count = live.bit_count()
        if count <= k:
            return live
        if largest:
            i = _reach(below, live, count - k + 1, True) - 1
            out = live & ~below[i + 1]
            bucket, ids = (live & ~below[i]) ^ out, reversed(self.ids[i])
        else:
            i = _reach(below, live, k, False) - 1
            out = below[i] & live
            bucket, ids = (below[i + 1] & live) ^ out, self.ids[i]
        return out | _encode(ids, bucket, k - out.bit_count())

    # -- writes: while a row is out of the list, ``below[k]`` still holds its
    # bit for every ``k > a``, ``a`` the boundary ``_take`` returns; ``_put``
    # moves it past the bucket the row enters.  An add comes from the last
    # boundary, a delete goes to it.

    def move(self, old: int | None, new: int | None, rid: int) -> None:
        """Move ``rid``'s entry from key ``old`` (None: an add) to ``new``
        (None: a delete), boundaries patched."""
        a = len(self.keys) if old is None else self._take(old, rid)
        if new is not None:
            self._put(new, rid, a)
        else:
            bit, below = 1 << rid, self.below
            below[a + 1:] = [m ^ bit for m in below[a + 1:]]

    def _take(self, key: int, rid: int) -> int:
        maxes = self.maxes
        a = bisect_left(maxes, key)
        keys = self.keys[a] if a < len(maxes) else [key + 1]
        p = bisect_left(keys, key)
        if keys[p] != key or self.ids[a][p] != rid:
            raise SimulationError(
                f"bidirectional map corrupted: id {rid} missing from its "
                "sorted list")
        ids = self.ids[a]
        del keys[p], ids[p]
        if len(keys) >= self.span:
            if p == len(keys):
                maxes[a] = keys[-1]
            return a
        if not keys:  # only the first bucket can empty
            del maxes[0]
            if len(self.keys) > 1:
                del self.keys[0], self.ids[0], self.below[1]
            return 0
        maxes[a] = keys[-1]
        if a == 0:
            return a
        prev = a - 1
        pkeys, pids = self.keys[prev], self.ids[prev]
        if len(pkeys) + len(keys) <= 2 * self.span:  # merge into prev
            pkeys += keys
            pids += ids
            del self.keys[a], self.ids[a], maxes[prev], self.below[a]
            return prev
        keys.insert(0, pkeys.pop())  # borrow prev's last entry
        ids.insert(0, pids.pop())
        maxes[prev] = pkeys[-1]
        self.below[a] ^= 1 << ids[0]
        return a

    def _put(self, key: int, rid: int, a: int) -> None:
        maxes = self.maxes
        b = bisect_left(maxes, key)
        if b == len(maxes) and b:  # past every bucket: the last one
            b -= 1
        keys = self.keys[b]
        if len(keys) == 2 * self.span:
            self._split(b)
            a += a > b
            b += key > maxes[b]
            keys = self.keys[b]
        q = bisect_left(keys, key)
        keys.insert(q, key)
        self.ids[b].insert(q, rid)
        if q == len(keys) - 1:
            maxes[b:b + 1] = [key]
        if a != b:
            lo, hi = (a + 1, b + 1) if a < b else (b + 1, a + 1)
            bit, below = 1 << rid, self.below
            below[lo:hi] = [m ^ bit for m in below[lo:hi]]

    def _split(self, i: int) -> None:
        span, keys, ids = self.span, self.keys[i], self.ids[i]
        self.keys.insert(i + 1, keys[span:])
        self.ids.insert(i + 1, ids[span:])
        # below[i + 1] has a moving row's bit iff the new boundary must.
        self.below.insert(i + 1, self.below[i + 1] ^ _bits(ids[span:]))
        del keys[span:], ids[span:]
        self.maxes.insert(i, keys[-1])

    def check(self, entries: Sequence[tuple[int, int]], name: str) -> None:
        """Raise unless this holds ``entries``, legally laid out and bounded."""
        span, sizes = self.span, [len(bucket) for bucket in self.keys]
        if sizes != [len(bucket) for bucket in self.ids] or list(entries) != [
                pair for pairs in map(zip, self.keys, self.ids) for pair in pairs]:
            raise SimulationError(f"{name} sorted list disagrees with the rows")
        if (self.maxes != [bucket[-1] for bucket in self.keys if bucket]
                or not (sizes[0] or len(sizes) == 1) or sizes[0] > 2 * span
                or any(not span <= size <= 2 * span for size in sizes[1:])):
            raise SimulationError(f"{name} bucket layout broken: {sizes}")
        if self.below != _boundaries(self.ids):
            raise SimulationError(f"{name} masks disagree with the sorted list")


class SMBM:
    """The functional SMBM: N = ``capacity`` rows, M = ``metric_names``."""

    def __init__(self, capacity: int, metric_names: Sequence[str], *,
                 sanitize: bool = False, tenant: str | None = None):
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        if not metric_names:
            raise ConfigurationError("SMBM needs at least one metric dimension")
        names = tuple(metric_names)
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate metric names: {names}")
        self._capacity = capacity
        self._metric_names = names
        # Forward map, and the enqueue sequence that breaks FIFO ties.
        self._rows: dict[int, dict[str, int]] = {}
        self._seq: dict[int, int] = {}
        self._next_seq = 0
        # The reverse map: selected metrics' sorted lists, predicates' [test, ids].
        self._indexes: dict[str, MetricIndex] = {}
        self._span = bucket_span(capacity)
        self._sets: dict[tuple[str, RelOp, int], list] = {}
        # The id dimension, and the pipeline's input table as an O(1) read.
        self._id_bits = 0
        # The checkpointed write count; caches key on the stamp instead.
        self._version = 0
        self._stamp = _next_stamp()
        # Committed-write listeners (the memo-coherence sanitizer).
        self._write_listeners: list = []
        # Commits and restores re-check the invariants: O(N * M), debug only.
        self._sanitize = sanitize
        # Writes and mask builds bump counters (no-ops under the null
        # registry); ``tenant`` splits every smbm_* series per tenant.
        self._tenant = tenant
        tlabels = {} if tenant is None else {"tenant": tenant}
        registry = obs.get_registry()
        self._obs_adds, self._obs_deletes = (
            registry.counter("smbm_writes_total", {"op": op, **tlabels},
                             help="committed SMBM writes")
            for op in ("add", "delete"))
        self._obs_rebuilds = registry.counter(
            "smbm_index_rebuilds_total", tlabels or None,
            help="full O(N) index builds (a sorted list's or a predicate "
                 "set's first read, a restore)",
        )
        self._obs_patches = registry.counter(
            "smbm_index_patches_total", tlabels or None,
            help="table writes patched into a sorted list or predicate set "
                 "at commit",
        )
        if registry.enabled:
            registry.add_hook(self._obs_collect)

    def _obs_collect(self):
        """Collect hook: occupancy and version as aggregate samples."""
        tlabels = () if self._tenant is None else (("tenant", self._tenant),)
        yield obs.Sample("smbm_resources", len(self._rows), kind="gauge",
                         labels=tlabels, help="resources currently stored across SMBMs")
        yield obs.Sample("smbm_version_total", self._version, labels=tlabels,
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
        """Committed writes so far: checkpointed and restored with the
        rows, so it may go down; no cache keys on it."""
        return self._version

    @property
    def stamp(self) -> int:
        """The table state's cache key, drawn from one process-wide count
        at construction, at every commit and at every restore: no two
        tables share one and none comes back.  Memos and kernels key on
        it, so nothing downstream has to be told about a write."""
        return self._stamp

    def is_full(self) -> bool:
        return len(self._rows) >= self._capacity

    # -- write primitives (section 5.1.2) ---------------------------------------

    def _checked_row(self, resource_id: int, metrics: Mapping[str, int]) -> dict[str, int]:
        """The row a write would store, or its error, before any change."""
        if not 0 <= resource_id < self._capacity:
            raise CapacityError(
                f"resource id {resource_id} out of range [0, {self._capacity}); "
                "ids index the bit-vector encoding so must be < N")
        if set(metrics) != set(self._metric_names):
            raise ConfigurationError(
                f"metric set {sorted(metrics)} does not match schema "
                f"{sorted(self._metric_names)}")
        try:
            row = {name: as_int(metrics[name]) for name in self._metric_names}
        except TypeError:
            raise ConfigurationError(
                f"metric values must be integers, got {dict(metrics)}") from None
        for name, value in row.items():
            if not 0 <= value < _WORD_LIMIT:
                raise ConfigurationError(
                    f"metric {name}={value} does not fit the unsigned "
                    f"{STORED_WORD_BITS}-bit stored word")
        return row

    def add(self, resource_id: int, metrics: Mapping[str, int]) -> None:
        """``add(SMBM, id, [metric1: val1, ..., metricM: valM])``."""
        row = self._checked_row(resource_id, metrics)
        if resource_id in self._rows:
            raise ConfigurationError(
                f"resource id {resource_id} already present; "
                "update = delete followed by add")
        if self.is_full():
            raise CapacityError(f"SMBM full: capacity {self._capacity}")
        seq = self._enqueue(resource_id, row)
        self._id_bits |= 1 << resource_id
        self._shift(resource_id, None, 0, row, seq)
        self._commit("add", resource_id)

    def _enqueue(self, resource_id: int, row: dict[str, int]) -> int:
        """Store ``row`` in the forward map at the next FIFO position."""
        seq = self._seq[resource_id] = self._next_seq
        self._next_seq += 1
        self._rows[resource_id] = row
        return seq

    def _commit(self, op: str, resource_id: int, patched: bool = True) -> None:
        """Retire one add or delete: stamp, version, counters, sanitizer,
        listeners."""
        self._stamp = _next_stamp()
        self._version += 1
        (self._obs_adds if op == "add" else self._obs_deletes).inc()
        if patched and (self._indexes or self._sets):
            self._obs_patches.inc(len(self._indexes) + len(self._sets))
        if self._sanitize:
            self._sanitized(f"committed {op} of resource {resource_id}",
                            resource_id)
        if self._write_listeners:
            for listener in self._write_listeners:
                listener(op, resource_id)

    def delete(self, resource_id: int) -> None:
        """``delete(SMBM, id)`` — removes the entry if present (else no-op)."""
        row = self._rows.pop(resource_id, None)
        if row is None:
            return
        seq = self._seq.pop(resource_id)
        self._id_bits &= ~(1 << resource_id)
        self._shift(resource_id, row, seq, None, 0)
        self._commit("delete", resource_id)

    def update(self, resource_id: int, metrics: Mapping[str, int]) -> None:
        """Delete then add, as the paper prescribes: two committed writes (two
        stamps, a fresh FIFO position, listeners see both in order),
        all-or-nothing, and one move per list, old rank to new."""
        if resource_id not in self._rows:
            self.add(resource_id, metrics)
            return
        row = self._checked_row(resource_id, metrics)
        old, old_seq = self._rows.pop(resource_id), self._seq.pop(resource_id)
        self._shift(resource_id, old, old_seq, row,
                    self._enqueue(resource_id, row))
        self._commit("delete", resource_id, patched=False)
        self._commit("add", resource_id)

    def _shift(self, resource_id: int, old: dict[str, int] | None,
               old_seq: int, row: dict[str, int] | None, seq: int) -> None:
        """Move the row's entry in every read list from ``old`` (None: an
        add) to ``row`` (None: a delete), and its bit in every set."""
        for name, index in self._indexes.items():
            index.move(None if old is None else old[name] << 64 | old_seq,
                       None if row is None else row[name] << 64 | seq,
                       resource_id)
        if self._sets:
            self._patch_sets(resource_id, row)

    @property
    def sanitize(self) -> bool:
        """True when every commit and restore re-checks the invariants."""
        return self._sanitize

    def _sanitized(self, after: str, resource_id: int | None) -> None:
        """The ``sanitize=True`` invariant check, run once per commit and
        once per restore."""
        try:
            self.check_invariants()
        except SimulationError as exc:
            raise IntegrityError(
                f"sanitizer: invariant violated after {after}: {exc}",
                component="smbm",
                resource=resource_id,
            ) from exc

    def add_write_listener(self, listener) -> None:
        """Subscribe ``listener(kind, id)`` to committed writes (kind add or
        delete); a restore commits nothing and notifies no one."""
        self._write_listeners.append(listener)

    # -- read interface (shared with the filter pipeline) -------------------------

    def ids(self) -> list[int]:
        """The id dimension, in sorted order."""
        return sorted(self._rows)

    def id_vector(self) -> BitVector:
        """Presence bit vector over [0, capacity): the pipeline's input table."""
        return BitVector.from_int(self._capacity, self._id_bits)

    def id_mask(self) -> int:
        """The presence bitmask as a raw int (the fast path's input table)."""
        return self._id_bits

    def _known(self, metric: str) -> None:
        if metric not in self._metric_names:
            raise ConfigurationError(
                f"unknown metric {metric!r}; schema: {self._metric_names}")

    def _row(self, resource_id: int) -> dict[str, int]:
        row = self._rows.get(resource_id)
        if row is None:
            raise ConfigurationError(f"no resource with id {resource_id}")
        return row

    def metric_index(self, metric: str) -> MetricIndex:
        """One metric's sorted list, what min, max and K-select read: sorted
        from the rows on the first read, patched at every commit after."""
        index = self._indexes.get(metric)
        if index is None:
            self._known(metric)
            index = MetricIndex(self._sorted_entries(metric), self._span)
            self._indexes[metric] = index
            self._obs_rebuilds.inc()
        return index

    def predicate_set(self, metric: str, rel_op: RelOp, val: int) -> int:
        """The ids whose ``metric`` satisfies ``rel_op val`` (the comparator
        bank's output): scanned from the rows on the first read, then one
        bit set or cleared at every commit."""
        entry = self._sets.get((metric, rel_op, val))
        if entry is None:
            self._known(metric)
            entry = self._sets[metric, rel_op, val] = [rel_op.fn, 0]
            entry[1] = self._scan(metric, entry[0], val)
            self._obs_rebuilds.inc()
        return entry[1]

    def keep_predicates(self, keys: Iterable[tuple[str, RelOp, int]]) -> None:
        """Drop every predicate set but those of ``keys``, each ``(metric,
        rel_op, val)``: a filter module keeps its installed policy's."""
        wanted = set(keys)
        self._sets = {key: entry for key, entry in self._sets.items()
                      if key in wanted}

    def _scan(self, metric: str, test, val: int) -> int:
        return _bits(rid for rid, row in self._rows.items() if test(row[metric], val))

    def _patch_sets(self, resource_id: int, row: dict[str, int] | None) -> None:
        """Set or clear ``resource_id``'s bit in every predicate set as
        ``row`` (None: deleted) satisfies it."""
        bit = 1 << resource_id
        for (name, _, val), entry in self._sets.items():
            if row is not None and entry[0](row[name], val):
                entry[1] |= bit
            else:
                entry[1] &= ~bit

    def metric_of(self, resource_id: int, metric: str) -> int:
        """Forward map: id -> metric value."""
        row = self._row(resource_id)
        self._known(metric)
        return row[metric]

    def metrics_of(self, resource_id: int) -> dict[str, int]:
        """Forward map: id -> all metric values (a row of the relational table)."""
        return dict(self._row(resource_id))

    def _sorted_entries(self, metric: str) -> list[tuple[int, int]]:
        """Every row's ``(key, id)`` in rank order, sorted from the rows."""
        rows, seqs = self._rows, self._seq
        return sorted((row[metric] << 64 | seqs[rid], rid)
                      for rid, row in rows.items())

    def attr_list(self, metric: str) -> list[tuple[int, int]]:
        """One metric's sorted list as (value, id) pairs: the UFPU's
        ``temp_list``.  Sorted from the rows on demand, so this oracle
        shares no structure with the :class:`MetricIndex` it checks."""
        self._known(metric)
        return [(key >> 64, rid) for key, rid in self._sorted_entries(metric)]

    def rank_of(self, resource_id: int, metric: str) -> int:
        """Position of a resource's entry within a metric dimension list."""
        row = self._row(resource_id)
        return self.metric_index(metric).rank(
            row[metric] << 64 | self._seq[resource_id])

    def check_invariants(self) -> None:
        """Raise :class:`SimulationError` unless every read metric's list
        equals a fresh sort of the rows, laid out legally with fresh
        boundaries, every predicate set a fresh scan, and the presence mask
        names the rows; run at every commit and restore under sanitize."""
        if set(self._seq) != set(self._rows):
            raise SimulationError("FIFO sequence map disagrees with the rows")
        if self._id_bits != _bits(self._rows):
            raise SimulationError("presence bitmask disagrees with the rows")
        for name, index in self._indexes.items():
            index.check(self._sorted_entries(name), name)
        for (name, rel_op, val), (test, ids) in self._sets.items():
            if ids != self._scan(name, test, val):
                raise SimulationError(
                    f"predicate set {name} {rel_op} {val} disagrees with the rows")

    def snapshot(self) -> dict[int, dict[str, int]]:
        """A deep copy of the current relational contents (for testing)."""
        return {rid: dict(row) for rid, row in self._rows.items()}

    # -- checkpoint / restore (serving-layer state migration) ---------------------

    def export_state(self) -> dict[str, object]:
        """Bit-faithful checkpoint state: the words, FIFO sequence numbers and
        version; lists and sets are derived from them on restore, and the
        stamp is never part of it."""
        return {
            "capacity": self._capacity,
            "metric_names": list(self._metric_names),
            "rows": {rid: dict(row) for rid, row in self._rows.items()},
            "seq": dict(self._seq),
            "next_seq": self._next_seq,
            "version": self._version,
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore :meth:`export_state` output in place (same capacity and
        schema), rebuilding every read metric's list and predicate set.
        The version may go **down**; the restore draws a fresh
        :attr:`stamp`, so every stamp-keyed cache misses after it and no
        caller has to drop one.  Under ``sanitize`` the invariants are
        checked once, after the last row lands."""
        if state.get("capacity") != self._capacity:
            raise ConfigurationError(
                f"checkpoint capacity {state.get('capacity')} does not match "
                f"table capacity {self._capacity}")
        if tuple(state.get("metric_names", ())) != self._metric_names:  # type: ignore[arg-type]
            raise ConfigurationError(
                f"checkpoint schema {state.get('metric_names')} does not "
                f"match table schema {list(self._metric_names)}")
        rows, seqs = state["rows"], state["seq"]
        assert isinstance(rows, dict) and isinstance(seqs, dict)
        if set(rows) != set(seqs):
            raise ConfigurationError(
                "corrupt checkpoint state: row ids and sequence ids disagree")
        if len(rows) > self._capacity:
            raise CapacityError(
                f"checkpoint holds {len(rows)} rows, table capacity is "
                f"{self._capacity}")
        # Rows and FIFO order are checked before anything is cleared.
        checked = {int(rid): self._checked_row(int(rid), row)
                   for rid, row in rows.items()}
        order = {int(rid): int(seqs[rid]) for rid in rows}
        next_seq = int(state["next_seq"])  # type: ignore[arg-type]
        version = int(state["version"])  # type: ignore[arg-type]
        if (len(set(order.values())) != len(order) or not 0 <= next_seq < _WORD_LIMIT
                or not all(0 <= seq < next_seq for seq in order.values())):
            raise ConfigurationError(
                "corrupt checkpoint state: FIFO sequence numbers must be distinct "
                f"and in [0, next_seq={next_seq}), with next_seq below 2**64")
        self._rows, self._seq = checked, order
        self._id_bits = _bits(checked)
        for name, index in self._indexes.items():
            index.fill(self._sorted_entries(name))
        for (name, _, val), entry in self._sets.items():
            entry[1] = self._scan(name, entry[0], val)
        self._obs_rebuilds.inc(len(self._indexes) + len(self._sets))
        self._next_seq, self._version = next_seq, version
        self._stamp = _next_stamp()
        if self._sanitize:
            self._sanitized("a restore", None)


class ClockedSMBM:
    """Cycle-accurate wrapper: one write issued per cycle commits on the
    tick ending its second cycle; ``read()`` sees the committed state."""

    def __init__(self, capacity: int, metric_names: Sequence[str]):
        self._smbm = SMBM(capacity, metric_names)
        self._pipe: PipelineLatch[tuple] = PipelineLatch(WRITE_LATENCY_CYCLES)
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
        self._pipe.issue(("add", resource_id, dict(metrics)))

    def issue_delete(self, resource_id: int) -> None:
        """Present a delete at the write port for the current cycle."""
        self._pipe.issue(("delete", resource_id, None))

    def tick(self) -> None:
        """Clock edge: advance the write pipeline, committing a retiring op."""
        retiring = self._pipe.tick()
        if retiring is not None:
            kind, resource_id, metrics = retiring
            if kind == "add":
                self._smbm.add(resource_id, metrics)
            else:
                self._smbm.delete(resource_id)
            self._commit_log.append((self._cycle, kind, resource_id))
        self._cycle += 1

    def read(self) -> SMBM:
        """The committed table (valid to read every cycle, during writes)."""
        return self._smbm

"""Metrics primitives: counters, gauges, power-of-two histograms, registry.

The observability layer is **opt-in**: the process-wide default registry is
:data:`NULL_REGISTRY`, whose instruments are shared no-op singletons — no
allocation, no side effects, no state.  Benchmarks and simulations that want
numbers install a real :class:`MetricsRegistry` (usually through
:func:`repro.obs.use_registry`) *before* constructing the objects they want
instrumented: components capture the active registry once, at construction
time, so the hot path never performs a global lookup.

Two instrumentation styles coexist, chosen by how hot the call site is:

* **event-time** — rare events (table writes, index rebuilds, packet drops,
  flow completions) call ``counter.inc()`` / ``histogram.observe()``
  directly; against the null registry these are no-op method calls.
* **collect-time hooks** — hot counters (memo hits at ~0.4us/call, per-cell
  activations) stay plain Python ints on the owning object, exactly as
  before; the object registers a *collect hook* that converts those ints
  into samples only when the registry is read (export / snapshot).  The hot
  path therefore pays nothing whether metrics are enabled or not, which is
  what keeps the enabled-vs-disabled benchmark overhead inside the <5%
  budget.  Hooks are held through weak references, so instrumented objects
  die normally and their samples simply stop appearing.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Sample",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
]

#: (key, value) label pairs, e.g. (("policy", "l4lb"), ("stage", "2")).
Labels = tuple[tuple[str, str], ...]


def _canon_labels(labels: Mapping[str, str] | Labels | None) -> Labels:
    if not labels:
        return ()
    if isinstance(labels, Mapping):
        items = labels.items()
    else:
        items = labels
    return tuple(sorted((str(k), str(v)) for k, v in items))


class Sample:
    """One exported time-series point: (name, labels, kind, value).

    ``kind`` is ``"counter"`` or ``"gauge"``; histogram instruments export
    themselves directly rather than through samples.  Samples are what
    collect hooks return; the registry merges (sums) samples that share
    (name, labels) across hooks, so several instrumented objects aggregate
    naturally into one series.
    """

    __slots__ = ("name", "labels", "kind", "value", "help")

    def __init__(self, name: str, value: float, *, kind: str = "counter",
                 labels: Mapping[str, str] | Labels | None = None,
                 help: str = ""):
        self.name = name
        self.labels = _canon_labels(labels)
        self.kind = kind
        self.value = value
        self.help = help


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "labels", "help", "_value")

    def __init__(self, name: str, labels: Labels = (), help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def inc(self, n: int = 1) -> None:
        self._value += n


class Gauge:
    """A value that can go up and down (occupancy, utilisation)."""

    __slots__ = ("name", "labels", "help", "_value")

    def __init__(self, name: str, labels: Labels = (), help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, n: float = 1.0) -> None:
        self._value += n

    def dec(self, n: float = 1.0) -> None:
        self._value -= n


class Histogram:
    """Fixed-bucket power-of-two histogram.

    Bucket ``i`` counts observations ``v`` with ``bit_length(int(v)) == i``,
    i.e. ``v`` in ``[2**(i-1), 2**i)`` (bucket 0 holds v < 1).  The last
    bucket is the overflow (+Inf) bucket.  Power-of-two bounds make the
    observe path a single ``int.bit_length()`` — no bisect, no float math —
    which is what a latency histogram on a microsecond-scale path needs.

    Observations are expected in an integral unit chosen by the call site
    (nanoseconds, microseconds, bytes, ...; name the instrument after the
    unit, e.g. ``*_ns``).
    """

    __slots__ = ("name", "labels", "help", "buckets", "_count", "_sum")

    #: Default number of finite buckets: 2**39 ns ~ 9 minutes of latency.
    DEFAULT_BUCKETS = 40

    def __init__(self, name: str, labels: Labels = (), help: str = "",
                 num_buckets: int = DEFAULT_BUCKETS):
        if num_buckets < 1:
            raise ValueError(f"histogram needs >= 1 bucket, got {num_buckets}")
        self.name = name
        self.labels = labels
        self.help = help
        self.buckets = [0] * (num_buckets + 1)  # trailing overflow bucket
        self._count = 0
        self._sum = 0

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> int:
        return self._sum

    def observe(self, value: float) -> None:
        v = int(value)
        if v < 0:
            v = 0
        idx = v.bit_length()
        if idx >= len(self.buckets):
            idx = len(self.buckets) - 1
        self.buckets[idx] += 1
        self._count += 1
        self._sum += v

    def bucket_bounds(self) -> list[float]:
        """Upper bound of each bucket; the last is +Inf."""
        finite = len(self.buckets) - 1
        return [float(2 ** i) for i in range(finite)] + [float("inf")]

    def cumulative(self) -> list[int]:
        """Cumulative counts per bucket (Prometheus ``le`` semantics)."""
        out = []
        acc = 0
        for c in self.buckets:
            acc += c
            out.append(acc)
        return out


#: A collect hook: called at registry read time, yields Samples.
CollectHook = Callable[[], Iterable[Sample]]


class MetricsRegistry:
    """Names and owns instruments; merges collect-hook samples at read time.

    ``counter``/``gauge``/``histogram`` are get-or-create by
    ``(name, labels)``, so independent components sharing a metric name
    accumulate into the same instrument.  ``add_hook`` registers a
    collect-time sample source (held weakly when it is a bound method, so an
    instrumented object's lifetime is unchanged).
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[tuple[str, Labels], Counter] = {}
        self._gauges: dict[tuple[str, Labels], Gauge] = {}
        self._histograms: dict[tuple[str, Labels], Histogram] = {}
        self._hooks: list[weakref.WeakMethod | Callable[[], Iterable[Sample]]] = []

    # -- instrument factories ---------------------------------------------------

    def counter(self, name: str,
                labels: Mapping[str, str] | Labels | None = None,
                help: str = "") -> Counter:
        key = (name, _canon_labels(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter(name, key[1], help)
        return inst

    def gauge(self, name: str,
              labels: Mapping[str, str] | Labels | None = None,
              help: str = "") -> Gauge:
        key = (name, _canon_labels(labels))
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge(name, key[1], help)
        return inst

    def histogram(self, name: str,
                  labels: Mapping[str, str] | Labels | None = None,
                  help: str = "",
                  num_buckets: int = Histogram.DEFAULT_BUCKETS) -> Histogram:
        key = (name, _canon_labels(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(
                name, key[1], help, num_buckets=num_buckets
            )
        return inst

    def discard(self, name: str,
                labels: Mapping[str, str] | Labels | None = None) -> None:
        """Drop one series, whatever its kind: for an owner whose label
        values come from callers and would otherwise accumulate."""
        key = (name, _canon_labels(labels))
        for instruments in (self._counters, self._gauges, self._histograms):
            instruments.pop(key, None)

    # -- collect hooks -----------------------------------------------------------

    def add_hook(self, hook: CollectHook) -> None:
        """Register a collect-time sample source.

        Bound methods are held through :class:`weakref.WeakMethod`: when the
        owning object is garbage collected the hook silently drops out.
        Plain functions/closures are held strongly.
        """
        if hasattr(hook, "__self__"):
            self._hooks.append(weakref.WeakMethod(hook))
        else:
            self._hooks.append(hook)

    def _run_hooks(self) -> dict[tuple[str, str, Labels], Sample]:
        merged: dict[tuple[str, str, Labels], Sample] = {}
        live: list[weakref.WeakMethod | Callable[[], Iterable[Sample]]] = []
        for entry in self._hooks:
            if isinstance(entry, weakref.WeakMethod):
                hook = entry()
                if hook is None:
                    continue  # owner died; prune below
            else:
                hook = entry
            live.append(entry)
            for sample in hook():
                key = (sample.name, sample.kind, sample.labels)
                existing = merged.get(key)
                if existing is None:
                    merged[key] = Sample(
                        sample.name, sample.value, kind=sample.kind,
                        labels=sample.labels, help=sample.help,
                    )
                else:
                    existing.value += sample.value
        self._hooks = live
        return merged

    # -- read side ----------------------------------------------------------------

    def collect(self) -> tuple[list[Sample], list[Histogram]]:
        """All current series: direct instruments merged with hook samples."""
        merged = self._run_hooks()
        for (name, labels), c in self._counters.items():
            key = (name, "counter", labels)
            if key in merged:
                merged[key].value += c.value
            else:
                merged[key] = Sample(name, c.value, kind="counter",
                                     labels=labels, help=c.help)
        for (name, labels), g in self._gauges.items():
            key = (name, "gauge", labels)
            if key in merged:
                merged[key].value += g.value
            else:
                merged[key] = Sample(name, g.value, kind="gauge",
                                     labels=labels, help=g.help)
        samples = sorted(merged.values(), key=lambda s: (s.name, s.labels))
        histograms = [
            self._histograms[key] for key in sorted(self._histograms)
        ]
        return samples, histograms

    def value_of(self, name: str,
                 labels: Mapping[str, str] | Labels | None = None) -> float:
        """Current value of one series (0.0 when absent); sums over all
        label sets when ``labels`` is None and several exist."""
        want = _canon_labels(labels)
        samples, _ = self.collect()
        total = 0.0
        for s in samples:
            if s.name == name and (labels is None or s.labels == want):
                total += s.value
        return total


class _NullCounter(Counter):
    """Shared do-nothing counter: the disabled path's instrument."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, n: float = 1.0) -> None:
        pass

    def dec(self, n: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null", num_buckets=1)


class NullRegistry(MetricsRegistry):
    """The default, disabled registry: every factory returns a shared no-op
    singleton, hooks are dropped, collect is always empty.

    Instrumented components check :attr:`enabled` to skip work (timing
    captures, hook registration) entirely when observability is off.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, labels=None, help: str = "") -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, labels=None, help: str = "") -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str, labels=None, help: str = "",
                  num_buckets: int = Histogram.DEFAULT_BUCKETS) -> Histogram:
        return _NULL_HISTOGRAM

    def add_hook(self, hook: CollectHook) -> None:
        pass


#: The process-wide disabled registry (the default active registry).
NULL_REGISTRY = NullRegistry()

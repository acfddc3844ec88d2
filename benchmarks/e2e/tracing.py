"""Spans around the layers' public callables, recorded from outside.

:func:`traced` swaps wrappers onto the classes for the duration of a
``with`` block; nothing under ``src/`` is edited.  Each call of a wrapped
callable records one span in memory — name, start, end, parent span, and
the trace id (batch index or op id) current when it began.  Synchronous
spans nest by call stack; the ``Controller`` coroutines are recorded as
parentless *async* spans (submit→ack overlaps other ops' work, so it is
not a stack interval).  A span's **self time** is its duration minus the
part its direct children cover, so self times of everything under a root
sum to that root's duration exactly.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Iterator

from repro.core.compiler import CompiledPolicy
from repro.core.smbm import SMBM
from repro.engine.batch import PacketBatch
from repro.engine.codegen import PlanCodegen
from repro.engine.columnar import BatchedEvaluator
from repro.rmt.probe import ProbeCodec
from repro.serving import BatchedBackend, Controller, WriteAheadLog
from repro.switch.filter_module import FilterModule
from repro.switch.thanos_switch import ThanosSwitch
from repro.tenancy.demux import TenantDemux

#: (class, attribute, span name).  Several callables may share a name when
#: they are one layer (the three SMBM write primitives; both WAL appends).
SYNC_TARGETS = (
    (BatchedBackend, "process_batch", "serving.backend"),
    (ThanosSwitch, "process_batch", "switch.thanos_switch"),
    (ProbeCodec, "decode", "rmt.probe.decode"),
    (TenantDemux, "partition", "tenancy.demux.partition"),
    (PacketBatch, "from_packets", "engine.batch.from_packets"),
    (PacketBatch, "scatter", "engine.batch.scatter"),
    (FilterModule, "evaluate_batch", "switch.filter_module.evaluate_batch"),
    (FilterModule, "evaluate", "switch.filter_module.evaluate"),
    (FilterModule, "update_resource", "serving.backend.apply"),
    (FilterModule, "remove_resource", "serving.backend.apply"),
    (BatchedEvaluator, "evaluate_masks", "engine.columnar.evaluate_masks"),
    (PlanCodegen, "evaluate_masks", "engine.codegen.evaluate_masks"),
    (SMBM, "update", "core.smbm.update"),
    (SMBM, "add", "core.smbm.update"),
    (SMBM, "delete", "core.smbm.update"),
    (SMBM, "metric_index", "core.smbm.metric_index"),
    (CompiledPolicy, "evaluate", "core.pipeline.evaluate"),
    (WriteAheadLog, "append", "serving.wal.append"),
    (WriteAheadLog, "append_group", "serving.wal.append"),
)
ASYNC_TARGETS = (
    (Controller, "update_resource", "serving.controller.submit_to_ack"),
    (Controller, "remove_resource", "serving.controller.submit_to_ack"),
)


class Tracer:
    """In-memory span store.  A span is ``[name, start_ns, end_ns, parent,
    trace_id, weight]``; ``parent`` indexes :attr:`spans` (-1 = root)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.trace_id = 0
        self._stack: list[int] = []

    def clear(self) -> None:
        """Forget everything recorded so far (set-up and warm-up spans)."""
        del self.spans[:]
        del self._stack[:]

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """An explicit span around a call the harness makes itself."""
        record = self._begin(name)
        try:
            yield
        finally:
            self._end(record)

    def _begin(self, name: str, weight: int = 1) -> list:
        stack = self._stack
        record = [name, 0, 0, stack[-1] if stack else -1, self.trace_id,
                  weight]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        return record

    def _end(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        begin, end = self._begin, self._end

        def wrapper(*args, **kwargs):
            record = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(record)

        return wrapper

    def wrap_group(self, name: str, fn):
        """Like :meth:`wrap` for ``append_group(self, entries)``: the span's
        weight is the number of ops that waited on this one frame."""
        begin, end = self._begin, self._end

        def wrapper(wal, entries):
            record = begin(name, len(entries))
            try:
                return fn(wal, entries)
            finally:
                end(record)

        return wrapper

    def wrap_async(self, name: str, fn):
        spans = self.spans

        async def wrapper(*args, **kwargs):
            record = [name, time.perf_counter_ns(), 0, -1, self.trace_id, 1]
            spans.append(record)
            try:
                return await fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()

        return wrapper

    # -- reading ------------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time (ns) of every span, by span index."""
        selfs = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                selfs[span[3]] -= span[2] - span[1]
        return selfs

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, summed self time, summed duration, and
        self time weighted by span weight (ns)."""
        out: dict[str, dict[str, int]] = {}
        for span, self_ns in zip(self.spans, self.self_times()):
            entry = out.setdefault(
                span[0], {"calls": 0, "self_ns": 0, "total_ns": 0,
                          "weighted_ns": 0})
            entry["calls"] += 1
            entry["self_ns"] += self_ns
            entry["total_ns"] += span[2] - span[1]
            entry["weighted_ns"] += self_ns * span[5]
        return out

    def children_named(self, name: str, parent_name: str) -> int:
        """How many ``name`` spans were called directly by a
        ``parent_name`` span."""
        spans = self.spans
        return sum(1 for span in spans
                   if span[0] == name and span[3] >= 0
                   and spans[span[3]][0] == parent_name)

    def dump(self, path) -> None:
        """Write the spans out, columnar (one JSON array per field)."""
        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        columns = list(zip(*self.spans)) if self.spans else [()] * 6
        with open(path, "w") as fh:
            json.dump({
                "names": names,
                "name": [code[n] for n in columns[0]],
                "start_ns": columns[1], "end_ns": columns[2],
                "parent": columns[3], "trace_id": columns[4],
                "weight": columns[5],
            }, fh)


@contextlib.contextmanager
def traced() -> Iterator[Tracer]:
    """Install the span wrappers; restore every class on exit."""
    tracer = Tracer()
    undo = []
    try:
        for targets, asynchronous in ((SYNC_TARGETS, False),
                                      (ASYNC_TARGETS, True)):
            for cls, attr, name in targets:
                raw = cls.__dict__.get(attr)  # None: inherited, shadow it
                fn = getattr(cls, attr)
                if asynchronous:
                    wrapped = tracer.wrap_async(name, fn)
                elif attr == "append_group":
                    wrapped = tracer.wrap_group(name, fn)
                elif isinstance(raw, classmethod):
                    wrapped = classmethod(tracer.wrap(name, raw.__func__))
                else:
                    wrapped = tracer.wrap(name, fn)
                undo.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
        yield tracer
    finally:
        for cls, attr, raw in reversed(undo):
            if raw is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, raw)

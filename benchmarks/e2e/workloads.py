"""The four workloads: set-up, timed region, traced pass, correctness.

Each workload is closed loop with one caller (``control_write``: four
client coroutines on one asyncio loop), single process, single thread.
Work is a fixed count derived from ``--seconds`` (a nominal per-second
count calibrated on the baseline commit), not a deadline, so a seed fixes
the exact sequence of calls and every program counter repeats.

An end-to-end run is :data:`ROUNDS` rounds, each a *fresh set-up*
followed by its share of the timed work, and the timed calls of a round
are cut into short *slices* (50–150 ms of work).  Every statistic is taken
over **all** timed samples: ``throughput_per_s`` is the median of the
per-slice throughputs, the latency percentiles pool every timed call,
``setup_s`` and ``recover_s`` are the medians of their per-round samples.
The sandbox this runs in slows a fixed loop by 10–40% for milliseconds to
seconds at a time; medians ride that out without choosing samples by the
value being measured.  ``throughput_mean_per_s`` (all work ÷ all timed
time, ungated) is the figure a pause longer than a slice shows in.

* :func:`run_end_to_end` measures with tracing off and the obs registry at
  its default ``NullRegistry``;
* :func:`run_traced` measures a short fixed slice twice — bare, then under
  :func:`tracing.traced` with a live ``MetricsRegistry`` — and reports the
  per-layer table.  End-to-end numbers never come from it.

Both check outputs against a reference *outside* every timed region and
count each mismatch into ``failed``.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import os
import resource
import shutil
import statistics
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.engine.batch import (
    META_FILTER_EPOCH,
    META_FILTER_INPUT,
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    META_FILTER_SELECTED,
)
from repro.rmt.packet import META_TENANT
from repro.serving import (
    BatchedBackend,
    Controller,
    ScalarBackend,
    WriteAheadLog,
    canonical_bytes,
    recover,
)

from . import shape
from .spec import RESULTS_DIR, percentile
from .tracing import Tracer, traced

#: Batches served (and discarded) before a rig counts as set up: memo,
#: metric indices, batch evaluators and codegen kernels are specialised.
WARM_BATCHES = 2
#: Ops each control client keeps in flight.
IN_FLIGHT = 32
#: Rounds per end-to-end run, and how often one is checked against the
#: reference (every fourth: a quarter of all outputs, spread over the run).
ROUNDS = 16
CHECK_EVERY = 4


@dataclass(frozen=True)
class Size:
    """How much work one pass does."""

    rounds: int     # fresh set-up + timed work, this many times
    per_round: int  # batches / ops timed in each round
    traced: int     # batches / ops in the traced slice


@dataclass(frozen=True)
class Workload:
    name: str
    #: Nominal batches (ops) per ``--seconds`` second on the baseline box.
    per_second: float
    #: Calls (ops) per slice: 50–150 ms of work on the baseline box.
    slice_calls: int
    traced: int
    pool: Callable[[int], list] | None = None
    spec_kwargs: dict = field(default_factory=dict)
    #: Which reference checks the outputs: the scalar backend on the same
    #: stream, or per-row ``CompiledPolicy.evaluate_restricted``.
    reference: str = "scalar"

    def size(self, seconds: float, smoke: bool) -> Size:
        """Whole slices only, so no statistic sees a ragged tail."""
        if smoke:
            return Size(2, 2 * self.slice_calls, max(2, self.traced // 10))
        slices = max(2, round(self.per_second * seconds / ROUNDS
                              / self.slice_calls))
        return Size(ROUNDS, slices * self.slice_calls, self.traced)


WORKLOADS = {w.name: w for w in (
    Workload("uniform_read", 700, 50, 200, shape.uniform_pool),
    Workload("masked_read", 40, 4, 50, shape.masked_pool,
             {"codegen": ("t2", "t3")}, reference="restricted"),
    Workload("probe_mix", 15, 2, 20, shape.probe_pool,
             {"stateful_t3": True}),
    Workload("control_write", 25_000, 2_400, 20_000),
)}


def slices_of(latencies: list[int], calls: int) -> list[list[int]]:
    return [latencies[i:i + calls] for i in range(0, len(latencies), calls)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(latencies: list[int]) -> dict[str, float]:
    """Percentiles over every timed call's latency (ns)."""
    ordered = sorted(latencies)
    return {
        "latency_p50_us": percentile(ordered, 0.50) / 1e3,
        "latency_p95_us": percentile(ordered, 0.95) / 1e3,
        "latency_p99_us": percentile(ordered, 0.99) / 1e3,
        "latency_samples": len(ordered),
    }


# ======================================================================================
# data workloads
# ======================================================================================


def setup_data(w: Workload, backend_cls, seed: int, pool: list):
    """Build, admit, load, warm: everything before the first timed call."""
    backend = shape.build_backend(backend_cls, seed, **w.spec_kwargs)
    for batch in pool[:WARM_BATCHES]:
        backend.process_batch(batch)
    return backend


_P61 = (1 << 61) - 1
#: Fingerprint of a packet that asked for nothing (a probe).
NO_REQUEST = (1 << 64) - 1


def fingerprint(output: int, selected: int, epoch: int) -> int:
    """64 bits standing for one packet's (output, selected, epoch).  The
    1024-bit output is folded mod 2^61-1; storing the columns themselves
    for every checked batch would dwarf the program's own memory."""
    return (output % _P61) ^ ((selected + 1) << 40) ^ ((epoch & 0xFF) << 56)


def batch_fingerprints(batch: list) -> array:
    """One fingerprint per packet of a served batch."""
    return array("Q", [
        fingerprint(m[META_FILTER_OUTPUT], m[META_FILTER_SELECTED],
                    m[META_FILTER_EPOCH])
        if m.get(META_FILTER_REQUEST) else NO_REQUEST
        for m in (p.metadata for p in batch)
    ])


def digest_of(captured: list[array]) -> str:
    """SHA-256 over every captured fingerprint, in serving order."""
    hasher = hashlib.sha256()
    for fingerprints in captured:
        hasher.update(fingerprints.tobytes())
    return hasher.hexdigest()


def serve(backend, pool: list, first: int, count: int, capture: bool,
          tracer: Tracer | None = None) -> tuple[list[int], list[array]]:
    """Closed-loop ``process_batch`` calls on batches ``first ..
    first+count`` of the cycled ``pool``.

    Only the call itself is timed.  With ``capture`` the outputs are
    fingerprinted between calls (the pool is cycled, so the next lap
    overwrites them).
    """
    process = backend.process_batch
    clock = time.perf_counter_ns
    latencies: list[int] = []
    captured: list[array] = []
    for i in range(first, first + count):
        batch = pool[i % len(pool)]
        if tracer is not None:
            tracer.trace_id = i
        t0 = clock()
        process(batch)
        latencies.append(clock() - t0)
        if capture:
            captured.append(batch_fingerprints(batch))
    return latencies, captured


class Checker:
    """The workload's reference, applied to captured rounds."""

    def __init__(self, w: Workload, seed: int, pool: list):
        self.w, self.seed, self.pool = w, seed, pool
        self.lap: list[array] = []
        if w.reference == "restricted":
            # ScalarBackend is no reference here: the scalar hook ignores
            # META_FILTER_INPUT (README, findings).  The table is static
            # and the pool cycles, so one reference lap covers every batch.
            modules = {
                t.name: t.module
                for t in shape.build_backend(BatchedBackend, seed).manager
            }
            for batch in pool:
                rows = array("Q")
                for packet in batch:
                    module = modules[packet.metadata[META_TENANT]]
                    out = module.compiled.evaluate_restricted(
                        module.smbm, packet.metadata[META_FILTER_INPUT]
                    )
                    rows.append(fingerprint(
                        out.value,
                        out.first_set() if out.popcount() == 1 else -1,
                        module.plan_epoch,
                    ))
                self.lap.append(rows)

    def mismatches(self, first: int,
                   captured: list[array]) -> tuple[int, list[int]]:
        """Mismatched packets among batches ``first ..`` as captured, and
        the per-batch times of the scalar reference pass over the same
        stream (empty when the reference is not the scalar backend)."""
        if self.lap:
            scalar_latencies: list[int] = []
            expected = [self.lap[(first + i) % len(self.lap)]
                        for i in range(len(captured))]
        else:
            scalar = setup_data(self.w, ScalarBackend, self.seed, self.pool)
            scalar_latencies, expected = serve(
                scalar, self.pool, first, len(captured), capture=True)
        failed = sum(
            got != want
            for got_batch, want_batch in zip(captured, expected)
            for got, want in zip(got_batch, want_batch)
        )
        return failed, scalar_latencies


def packets_per_s(latencies: list[int]) -> float:
    """Packets ÷ summed ``process_batch`` time of these calls."""
    return len(latencies) * shape.BATCH / (sum(latencies) / 1e9)


def run_data_end_to_end(w: Workload, seed: int, size: Size) -> dict:
    pool = w.pool(seed)
    checker = Checker(w, seed, pool)
    setups: list[float] = []
    slices: list[list[int]] = []
    scalar_slices: list[list[int]] = []
    failed = 0
    for k in range(size.rounds):
        first = k * size.per_round
        t0 = time.perf_counter()
        backend = setup_data(w, BatchedBackend, seed, pool)
        setups.append(time.perf_counter() - t0)
        gc.collect()
        checked = k % CHECK_EVERY == 0
        latencies, captured = serve(backend, pool, first, size.per_round,
                                    capture=checked)
        slices += slices_of(latencies, w.slice_calls)
        if checked:
            mismatched, scalar_latencies = checker.mismatches(first, captured)
            failed += mismatched
            scalar_slices += slices_of(scalar_latencies, w.slice_calls)
    latencies = [ns for piece in slices for ns in piece]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": statistics.median(map(packets_per_s, slices)),
        "throughput_mean_per_s": packets_per_s(latencies),
        **latency_metrics(latencies),
        "peak_rss_mb": peak_rss_mb(),
    }
    if scalar_slices:
        metrics["scalar_pkts_per_s"] = statistics.median(
            map(packets_per_s, scalar_slices))
    return {
        "attempted": size.rounds * size.per_round * shape.BATCH,
        "failed": failed,
        "metrics": metrics,
    }


def counter_values(registry) -> dict[tuple, float]:
    samples, _ = registry.collect()
    return {(s.name, s.labels): s.value for s in samples
            if s.kind == "counter"}


class CounterDelta:
    """Registry counters accumulated between two reads."""

    def __init__(self, before: dict, after: dict):
        self._delta = {key: value - before.get(key, 0)
                       for key, value in after.items()}

    def __call__(self, name: str, **labels: str) -> int:
        """Sum of ``name`` over every series carrying ``labels``."""
        want = set(labels.items())
        return int(sum(
            value for (series, series_labels), value in self._delta.items()
            if series == name and want <= set(series_labels)
        ))


def run_data_traced(w: Workload, seed: int, size: Size) -> dict:
    pool = w.pool(seed)
    bare = setup_data(w, BatchedBackend, seed, pool)
    gc.collect()
    bare_latencies, _ = serve(bare, pool, 0, size.traced, capture=False)

    with obs.use_registry(obs.MetricsRegistry()) as registry, \
            traced() as tracer:
        backend = setup_data(w, BatchedBackend, seed, pool)
        gc.collect()
        tracer.clear()
        before = counter_values(registry)
        latencies, captured = serve(backend, pool, 0, size.traced,
                                    capture=True, tracer=tracer)
        count = CounterDelta(before, counter_values(registry))

    failed, scalar_latencies = Checker(w, seed, pool).mismatches(0, captured)
    totals = tracer.totals()
    n = size.traced

    def ms(name: str) -> float:
        """Self time of one layer per 1024-packet batch."""
        return totals.get(name, {}).get("self_ns", 0) / n / 1e6

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    codegen_tenants = w.spec_kwargs.get("codegen", ())
    engine_rows = {
        t: count("filter_batch_path_rows_total", path="engine", tenant=t)
        for t in shape.TENANTS
    }
    hits = count("filter_memo_hits_total")
    misses = count("filter_memo_misses_total")
    root = totals["serving.backend"]
    digest = digest_of(captured)
    metrics = {
        "serving.backend.self_ms": ms("serving.backend"),
        "tenancy.demux.partition_ms": ms("tenancy.demux.partition"),
        "tenancy.demux.partition_calls": calls("tenancy.demux.partition"),
        "rmt.probe.decode_ms": ms("rmt.probe.decode"),
        "rmt.probe.decode_calls": calls("rmt.probe.decode"),
        "engine.batch.from_packets_ms": ms("engine.batch.from_packets"),
        "engine.batch.scatter_ms": ms("engine.batch.scatter"),
        "switch.thanos_switch.self_ms": ms("switch.thanos_switch"),
        "switch.thanos_switch.runs": tracer.children_named(
            "tenancy.demux.partition", "switch.thanos_switch"),
        "switch.filter_module.evaluate_batch_self_ms":
            ms("switch.filter_module.evaluate_batch"),
        "switch.filter_module.batches": count("filter_batches_total"),
        "switch.filter_module.broadcast_rows":
            count("filter_batch_path_rows_total", path="broadcast"),
        "switch.filter_module.engine_rows": sum(engine_rows.values()),
        "switch.filter_module.fallback_rows":
            count("filter_batch_path_rows_total", path="fallback"),
        "switch.filter_module.memo_hits": hits,
        "switch.filter_module.memo_misses": misses,
        "switch.filter_module.memo_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "switch.filter_module.evaluate_ms":
            ms("switch.filter_module.evaluate"),
        "engine.columnar.evaluate_masks_ms":
            ms("engine.columnar.evaluate_masks"),
        "engine.columnar.rows": sum(
            rows for t, rows in engine_rows.items()
            if t not in codegen_tenants),
        "engine.codegen.evaluate_masks_ms":
            ms("engine.codegen.evaluate_masks"),
        "engine.codegen.rows": sum(
            rows for t, rows in engine_rows.items() if t in codegen_tenants),
        "engine.codegen.cache_hits": count("codegen_cache_hits_total"),
        "engine.codegen.cache_misses": count("codegen_cache_misses_total"),
        "engine.codegen.specializations":
            count("codegen_specializations_total"),
        "core.smbm.update_ms": ms("core.smbm.update"),
        "core.smbm.writes": count("smbm_writes_total"),
        "core.smbm.metric_index_ms": ms("core.smbm.metric_index"),
        "core.smbm.index_rebuilds": count("smbm_index_rebuilds_total"),
        "core.pipeline.evaluate_ms": ms("core.pipeline.evaluate"),
        "core.pipeline.evaluations": calls("core.pipeline.evaluate"),
        "serving.backend.apply_ms": ms("serving.backend.apply"),
        "serving.scalar.batch_ms":
            statistics.median(scalar_latencies) / 1e6
            if scalar_latencies else 0.0,
        **{f"sim.latency_cycles.{t.name}": t.module.latency_cycles
           for t in backend.manager},
        "output_digest": int(digest[:12], 16),
        "trace.overhead_ratio":
            statistics.median(latencies) / statistics.median(bare_latencies),
        "trace.unattributed_ratio": root["self_ns"] / root["total_ns"],
    }
    return {
        "attempted": n * shape.BATCH,
        "failed": failed,
        "metrics": metrics,
        "output_digest": digest,
        "tracer": tracer,
        "batch_ms": sum(latencies) / n / 1e6,
    }


# ======================================================================================
# control_write
# ======================================================================================


def control_plans(seed: int, round_: int, ops: int) -> dict[str, list]:
    """The ops of one round, split evenly over the tenants."""
    per_tenant = ops // len(shape.TENANTS)
    return {t: shape.op_plan(seed, f"{round_}/{t}", per_tenant)
            for t in shape.TENANTS}


def fill_plans(seed: int) -> dict[str, list]:
    plans: dict[str, list] = {t: [] for t in shape.TENANTS}
    for write in shape.table_writes(seed):
        plans[write.tenant].append((write.resource_id, write.metrics))
    return plans


def model_of(*plan_sets: dict[str, list]) -> dict[str, dict[int, dict]]:
    """The plain-dict table the applied ops must leave behind."""
    model: dict[str, dict[int, dict]] = {t: {} for t in shape.TENANTS}
    for plans in plan_sets:
        for tenant, plan in plans.items():
            for rid, metrics in plan:
                if metrics is None:
                    model[tenant].pop(rid, None)
                else:
                    model[tenant][rid] = dict(metrics)
    return model


class ControlRig:
    """A live ``Controller(BatchedBackend, wal=...)`` with every tenant
    admitted *through* the controller and every table filled through it."""

    def __init__(self, workdir: str):
        self.backend = BatchedBackend(shape.new_manager())
        # A fresh log per rig: an existing file would be continued.
        fd, path = tempfile.mkstemp(suffix=".wal", dir=workdir)
        os.close(fd)
        os.unlink(path)
        self.wal = WriteAheadLog(path, sync="flush")
        self.ctl = Controller(self.backend, wal=self.wal)

    @classmethod
    async def setup(cls, seed: int, workdir: str) -> "ControlRig":
        rig = cls(workdir)
        for spec in shape.tenant_specs():
            await rig.ctl.add_tenant(spec)
        _, errors, _ = await drive(rig.ctl, fill_plans(seed))
        if errors:
            raise RuntimeError(f"table fill failed: {errors[0]}")
        return rig

    async def close(self) -> None:
        await self.ctl.aclose()   # appends the clean-shutdown marker
        self.wal.close()


async def drive(ctl: Controller, plans: dict[str, list],
                tracer: Tracer | None = None):
    """One client coroutine per tenant, each keeping :data:`IN_FLIGHT` awaited
    ops in flight.  Returns (submit→ack ns per op, errors, wall seconds)."""
    loop = asyncio.get_running_loop()
    clock = time.perf_counter_ns
    latencies: list[int] = []
    errors: list[str] = []
    op_ids = iter(range(sum(len(p) for p in plans.values())))

    async def one(gate, tenant, rid, metrics):
        if tracer is not None:
            tracer.trace_id = next(op_ids)
        t0 = clock()
        try:
            if metrics is None:
                await ctl.remove_resource(tenant, rid)
            else:
                await ctl.update_resource(tenant, rid, metrics)
        except Exception as exc:  # noqa: BLE001 - a failed op is a result
            errors.append(repr(exc))
        latencies.append(clock() - t0)
        gate.release()

    async def client(tenant: str, plan: list) -> None:
        gate = asyncio.Semaphore(IN_FLIGHT)
        pending: set = set()
        for rid, metrics in plan:
            await gate.acquire()
            task = loop.create_task(one(gate, tenant, rid, metrics))
            pending.add(task)
            task.add_done_callback(pending.discard)
        if pending:
            await asyncio.wait(pending)

    started = time.perf_counter()
    await asyncio.gather(*(client(t, plan) for t, plan in plans.items()))
    await ctl.drain()
    return latencies, errors, time.perf_counter() - started


def check_control(rig: ControlRig, recovered, model: dict) -> int:
    """Mismatches between the live tables, the dict model of the applied
    ops, and the backend recovered from the WAL."""
    failed = 0
    for tenant in rig.backend.manager:
        live = tenant.module.smbm.snapshot()
        want = model[tenant.name]
        failed += sum(live.get(rid) != want.get(rid)
                      for rid in live.keys() | want.keys())
    live_bytes = canonical_bytes(rig.backend.snapshot().payload())
    if canonical_bytes(recovered.snapshot().payload()) != live_bytes:
        failed += 1
    return failed


def recover_rig(rig: ControlRig):
    """Replay the rig's (closed) WAL onto a fresh backend."""
    return recover(rig.wal.path,
                   lambda _ckpt: BatchedBackend(shape.new_manager()))


def run_control_end_to_end(w: Workload, seed: int, size: Size) -> dict:
    fill = fill_plans(seed)
    workdir = tempfile.mkdtemp(prefix="wal-", dir=RESULTS_DIR)
    per_tenant = w.slice_calls // len(shape.TENANTS)
    setups: list[float] = []
    recoveries: list[float] = []
    slices: list[tuple[float, list[int]]] = []  # (wall s, per-op ns)

    async def one_round(k: int) -> int:
        plans = control_plans(seed, k, size.per_round)
        t0 = time.perf_counter()
        rig = await ControlRig.setup(seed, workdir)
        setups.append(time.perf_counter() - t0)
        gc.collect()
        errors: list[str] = []
        # A slice of a concurrent stream: drive it, drain it, time it.
        for start in range(0, size.per_round // len(plans), per_tenant):
            latencies, failed_ops, wall = await drive(rig.ctl, {
                t: plan[start:start + per_tenant]
                for t, plan in plans.items()})
            slices.append((wall, latencies))
            errors += failed_ops
        await rig.close()
        # Nothing else is scheduled on the loop: recovery may block it.
        t0 = time.perf_counter()
        report = recover_rig(rig)
        recoveries.append(time.perf_counter() - t0)
        os.unlink(rig.wal.path)
        return (len(errors) + len(report.errors)
                + check_control(rig, report.backend, model_of(fill, plans)))

    async def scenario() -> int:
        return sum([await one_round(k) for k in range(size.rounds)])

    try:
        failed = asyncio.run(scenario())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = sum(len(latencies) for _, latencies in slices)
    return {
        "attempted": ops,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setups),
            "throughput_per_s": statistics.median(
                len(latencies) / wall for wall, latencies in slices),
            "throughput_mean_per_s": ops / sum(wall for wall, _ in slices),
            **latency_metrics(
                [ns for _, latencies in slices for ns in latencies]),
            "peak_rss_mb": peak_rss_mb(),
            "recover_s": statistics.median(recoveries),
        },
    }


def run_control_traced(w: Workload, seed: int, size: Size) -> dict:
    plans = control_plans(seed, 0, size.traced)
    workdir = tempfile.mkdtemp(prefix="wal-", dir=RESULTS_DIR)

    async def scenario(tracer: Tracer | None):
        rig = await ControlRig.setup(seed, workdir)
        gc.collect()
        if tracer is not None:
            tracer.clear()
        before = counter_values(obs.get_registry())
        latencies, errors, wall = await drive(rig.ctl, plans, tracer)
        await rig.close()
        return rig, before, latencies, errors, wall

    try:
        _, _, bare_latencies, _, _ = asyncio.run(scenario(None))
        with obs.use_registry(obs.MetricsRegistry()) as registry, \
                traced() as tracer:
            rig, before, latencies, errors, wall = asyncio.run(
                scenario(tracer))
            # Recovery replays every op onto a second backend: read the
            # run's own spans and counters before it adds to them.
            totals = tracer.totals()
            after_run = counter_values(registry)
            count = CounterDelta(before, after_run)
            recover_span = len(tracer.spans)
            with tracer.span("serving.recovery.recover"):
                report = recover_rig(rig)
            _, started, ended, *_ = tracer.spans[recover_span]
            recovery = CounterDelta(after_run, counter_values(registry))
        failed = (len(errors) + len(report.errors)
                  + check_control(rig, report.backend,
                                  model_of(fill_plans(seed), plans)))
        payload = canonical_bytes(rig.backend.snapshot().payload())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = len(latencies)

    def per_kop(ns: float) -> float:
        """Milliseconds per 1000 ops."""
        return ns / ops * 1e3 / 1e6

    def field_of(name: str, key: str) -> int:
        return totals.get(name, {}).get(key, 0)

    submit_to_ack = field_of("serving.controller.submit_to_ack", "total_ns")
    # Every op of a group frame waits for the whole frame: weight by size.
    wal_wait = field_of("serving.wal.append", "weighted_ns")
    wal_busy = field_of("serving.wal.append", "self_ns")
    apply_total = field_of("serving.backend.apply", "total_ns")
    # The drive's wall time inside no wrapped callable: event loop,
    # controller bookkeeping and the load generator.
    loop_ns = wall * 1e9 - wal_busy - apply_total
    replayed = recovery("wal_records_replayed_total")
    records = count("wal_appends_total")
    frames = count("wal_frames_total")
    digest = hashlib.sha256(payload).hexdigest()
    metrics = {
        "serving.controller.submit_to_ack_ms": per_kop(submit_to_ack),
        # derived: what submit→ack spent neither in the WAL nor applying
        "serving.controller.queue_wait_ms":
            per_kop(submit_to_ack - wal_wait - apply_total),
        "serving.controller.loop_ms": per_kop(loop_ns),
        "serving.controller.ops": count("controller_ops_total",
                                        outcome="ok"),
        "serving.controller.retries": count("controller_retries_total"),
        "serving.controller.shed": count("controller_shed_total"),
        "serving.controller.errors": count("controller_ops_total",
                                           outcome="error"),
        "serving.wal.append_ms": per_kop(wal_busy),
        "serving.wal.records": records,
        "serving.wal.frames": frames,
        "serving.wal.mean_group_size": records / frames if frames else 0.0,
        "serving.wal.bytes": count("wal_bytes_written_total"),
        "serving.backend.apply_ms":
            per_kop(field_of("serving.backend.apply", "self_ns")),
        "core.smbm.update_ms":
            per_kop(field_of("core.smbm.update", "self_ns")),
        "core.smbm.writes": count("smbm_writes_total"),
        # per 1000 records replayed (set-up's fill included)
        "serving.recovery.recover_ms":
            (ended - started) / max(1, replayed) / 1e3,
        "serving.recovery.records_replayed": replayed,
        "serving.recovery.replay_errors":
            recovery("wal_replay_errors_total"),
        **{f"sim.latency_cycles.{t.name}": t.module.latency_cycles
           for t in rig.backend.manager},
        "output_digest": int(digest[:12], 16),
        "trace.overhead_ratio":
            statistics.median(latencies) / statistics.median(bare_latencies),
        "trace.unattributed_ratio": loop_ns / (wall * 1e9),
    }
    return {
        "attempted": ops,
        "failed": failed,
        "metrics": metrics,
        "output_digest": digest,
        "tracer": tracer,
    }


# ======================================================================================
# dispatch
# ======================================================================================


def run_end_to_end(name: str, seed: int, seconds: float,
                   smoke: bool = False) -> dict:
    w = WORKLOADS[name]
    run = run_control_end_to_end if w.pool is None else run_data_end_to_end
    return run(w, seed, w.size(seconds, smoke))


def run_traced(name: str, seed: int, seconds: float,
               smoke: bool = False) -> dict:
    w = WORKLOADS[name]
    run = run_control_traced if w.pool is None else run_data_traced
    return run(w, seed, w.size(seconds, smoke))

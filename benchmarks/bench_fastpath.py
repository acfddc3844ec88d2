"""Fast-path microbenchmark: mask engine + memoization vs the O(N) reference.

Sweeps N over {64, 256, 1024} for four stateless policies (predicate, min,
max, and a fused predicate/predicate/min chain), timing three data paths
for the *same* policy:

* ``ref``  — the naive O(N) temp-list walk (a ``PolicyInterpreter``);
* ``fast`` — the compiled pipeline on the O(log N) rank/prefix-bitmask
  engine;
* ``memo`` — a memoized :class:`~repro.switch.filter_module.FilterModule`
  answering repeated packets against an unchanged table from the
  SMBM-version cache.

Every path is timed twice: once with the observability registry disabled
(the default no-op null registry) and once with a live
:class:`repro.obs.MetricsRegistry` installed, so the JSON records the
real-world overhead of enabling metrics (the acceptance budget is < 5%;
collect-hook instrumentation keeps it near zero).  The enabled run's
exporter snapshot is embedded as ``metrics_snapshot`` for CI to assert
against (e.g. that the memo-hit counter is nonzero).

Correctness is asserted as part of the run (all three paths must agree
bit-for-bit) and the timings are written machine-readable to
``BENCH_fastpath.json`` at the repository root so later PRs have a perf
trajectory to compare against.

Run directly::

    PYTHONPATH=src python benchmarks/bench_fastpath.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_fastpath.py --quick    # tiny-N CI mode

or via ``pytest benchmarks/`` (quick sweep, correctness only — no timing
assertions, so CI stays free of timing flakiness).
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import random
import sys
import time
from typing import Callable

if __package__ in (None, ""):  # direct script execution: make the
    # `benchmarks` package importable without PYTHONPATH tweaks
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from benchmarks.report import (
    emit,
    format_engine_counters,
    format_filter_counters,
    format_table,
    parse_series,
)
from repro import obs
from repro.core.compiler import PolicyCompiler
from repro.core.operators import RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Policy,
    PolicyInterpreter,
    TableRef,
    intersection,
    max_of,
    min_of,
    predicate,
)
from repro.core.smbm import SMBM
from repro.faults import ECCStore, Scrubber
from repro.rmt.packet import META_TENANT, Packet
from repro.switch.filter_module import (
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    FilterModule,
    PacketBatch,
)
from repro.switch.thanos_switch import ThanosSwitch
from repro.tenancy import TenantManager, TenantSpec

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_fastpath.json"

METRICS = ("load", "mem")
VALUE_RANGE = 1000

FULL_SWEEP = (64, 256, 1024)
QUICK_SWEEP = (16, 64)

FULL_BATCH = 1024
QUICK_BATCH = 64


def _policy_builders() -> dict[str, Callable[[], Policy]]:
    """Fresh policy ASTs per call (node ids are identity-based)."""

    def build_predicate() -> Policy:
        return Policy(
            predicate(TableRef(), "load", RelOp.LT, VALUE_RANGE // 2),
            name="predicate",
        )

    def build_min() -> Policy:
        return Policy(min_of(TableRef(), "load"), name="min")

    def build_max() -> Policy:
        return Policy(max_of(TableRef(), "load"), name="max")

    def build_chain() -> Policy:
        table = TableRef()
        eligible = intersection(
            predicate(table, "load", RelOp.LT, (VALUE_RANGE * 7) // 10),
            predicate(table, "mem", RelOp.GT, VALUE_RANGE // 10),
        )
        return Policy(min_of(eligible, "load"), name="chain")

    return {
        "predicate": build_predicate,
        "min": build_min,
        "max": build_max,
        "chain": build_chain,
    }


def _fill(smbm: SMBM, rng: random.Random) -> None:
    for rid in range(smbm.capacity):
        smbm.add(
            rid, {name: rng.randrange(VALUE_RANGE) for name in smbm.metric_names}
        )


def _time_per_call(fn, *, repeats: int = 5, target_s: float = 0.01) -> float:
    """Best-of-``repeats`` mean seconds per call, auto-scaling the inner loop."""
    fn()  # warm up (builds metric indexes, fills caches)
    start = time.perf_counter()
    fn()
    single = max(time.perf_counter() - start, 1e-9)
    inner = max(3, min(1000, int(target_s / single)))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def _time_pair(fn_base, fn_inst, *, repeats: int = 24,
               target_s: float = 0.01) -> tuple[float, float]:
    """Best-of-``repeats`` seconds/call for two equivalent callables, with
    their inner loops interleaved repeat-by-repeat so that slow timing drift
    (noisy-neighbour CPU, thermal throttling) hits both equally, and the
    within-repeat order alternated so neither side systematically runs on a
    warmer cache.  This is what makes the enabled-vs-disabled overhead
    comparison trustworthy on sub-microsecond paths."""
    fn_base()  # warm up both (builds metric indexes, fills caches)
    fn_inst()
    start = time.perf_counter()
    fn_base()
    single = max(time.perf_counter() - start, 1e-9)
    inner = max(3, min(3000, int(target_s / single)))
    best_base = best_inst = float("inf")
    for r in range(repeats):
        order = (fn_base, fn_inst) if r % 2 == 0 else (fn_inst, fn_base)
        elapsed = {}
        for fn in order:
            start = time.perf_counter()
            for _ in range(inner):
                fn()
            elapsed[fn] = (time.perf_counter() - start) / inner
        best_base = min(best_base, elapsed[fn_base])
        best_inst = min(best_inst, elapsed[fn_inst])
    return best_base, best_inst


def _build_env(params: PipelineParams, sweep) -> dict[tuple[int, str], tuple]:
    """Compile every (N, policy) case under the *active* registry.

    Returns ``{(N, policy): (smbm, fast, ref, module)}`` with correctness
    (all three paths bit-identical) asserted as part of the build.
    Instrumentation is captured at construction time, so objects built under
    a live registry stay instrumented for the timing phase even after the
    registry stops being the process default.
    """
    builders = _policy_builders()
    env: dict[tuple[int, str], tuple] = {}
    for n_resources in sweep:
        rng = random.Random(0xBEEF ^ n_resources)
        smbm = SMBM(n_resources, METRICS)
        _fill(smbm, rng)
        for name, build in builders.items():
            fast = PolicyCompiler(params).compile(build())
            ref = PolicyInterpreter(build())
            assert fast.stateless

            module = FilterModule(n_resources, METRICS, build(), params)
            for rid in range(n_resources):
                module.smbm.add(rid, dict(smbm.metrics_of(rid)))

            # The same module with the full fault machinery armed but idle:
            # self-healing wrapper on, ECC check words maintained in
            # lockstep, a scrubber constructed.  The acceptance budget says
            # arming all of this must cost < 5% on the fault-free memoized
            # path.
            module_f = FilterModule(
                n_resources, METRICS, build(), params, self_healing=True
            )
            for rid in range(n_resources):
                module_f.smbm.add(rid, dict(smbm.metrics_of(rid)))
            scrubber = Scrubber(ECCStore(module_f.smbm))

            # The same module again with the runtime sanitizer armed
            # (commit-time invariant checks + memo-coherence listener).
            # The sanitizer budget says the read/memo fast path must cost
            # < 10% extra — all its work rides on committed writes.
            module_s = FilterModule(
                n_resources, METRICS, build(), params, sanitize=True
            )
            for rid in range(n_resources):
                module_s.smbm.add(rid, dict(smbm.metrics_of(rid)))

            # Correctness: all five paths agree bit-for-bit.
            out_fast = fast.evaluate(smbm)
            out_ref = ref.evaluate(smbm)
            out_memo = module.evaluate()
            out_fault = module_f.evaluate()
            out_san = module_s.evaluate()
            if not (out_fast == out_ref == out_memo == out_fault == out_san):
                raise AssertionError(
                    f"fast/ref/memo/fault/sanitize outputs disagree for "
                    f"{name} at N={n_resources}"
                )
            env[(n_resources, name)] = (smbm, fast, ref, module, module_f,
                                        scrubber, module_s)
    return env


def _build_batch_env(
    params: PipelineParams, sweep, batch_size: int
) -> dict[tuple[int, str], tuple]:
    """Batched/codegen serving modules per (N, policy) case.

    Returns ``{(N, policy): (module_b, uniform, masked, module_cg)}``:

    * ``module_b`` — a memoized module serving ``uniform`` (every row
      filters the whole table) via the broadcast path, and ``masked``
      (per-row candidate masks) via the columnar engine;
    * ``module_cg`` — the same policy with ``codegen=True``; its kernel
      tier (``module_cg.codegen``) is what the codegen column times, called
      directly so the module's memo cannot answer for it and the
      version-keyed codegen cache accrues hits.

    Correctness (batched broadcast == scalar evaluate == codegen kernel,
    and masked rows == the restricted interpreted pipeline) is asserted as
    part of the build.
    """
    builders = _policy_builders()
    env: dict[tuple[int, str], tuple] = {}
    for n_resources in sweep:
        rng = random.Random(0xBEEF ^ n_resources)
        smbm = SMBM(n_resources, METRICS)
        _fill(smbm, rng)
        mask_rng = random.Random(0xFEED ^ n_resources)
        for name, build in builders.items():
            module_b = FilterModule(n_resources, METRICS, build(), params)
            module_cg = FilterModule(
                n_resources, METRICS, build(), params, codegen=True,
            )
            for rid in range(n_resources):
                metrics = dict(smbm.metrics_of(rid))
                module_b.smbm.add(rid, metrics)
                module_cg.smbm.add(rid, metrics)
            uniform = PacketBatch.uniform(batch_size)
            full = (1 << n_resources) - 1
            masked = PacketBatch(
                batch_size,
                input_masks=[mask_rng.getrandbits(n_resources) & full
                             for _ in range(batch_size)],
            )
            out = module_b.evaluate().value
            module_b.evaluate_batch(uniform)
            if set(uniform.outputs) != {out}:
                raise AssertionError(
                    f"uniform batch disagrees with scalar evaluate for "
                    f"{name} at N={n_resources}"
                )
            if module_cg.evaluate().value != out:
                raise AssertionError(
                    f"codegen kernel disagrees with interpreted plan for "
                    f"{name} at N={n_resources}"
                )
            module_b.evaluate_batch(masked)
            for row, mask in enumerate(masked.input_masks):
                expected = module_b.compiled.evaluate_restricted(
                    module_b.smbm, mask
                ).value
                if masked.outputs[row] != expected:
                    raise AssertionError(
                        f"masked batch row {row} disagrees with the "
                        f"restricted pipeline for {name} at N={n_resources}"
                    )
            # The codegen module serves the same masked batch through its
            # kernel tier, and the kernel is called once more at the same
            # table version, so the version-keyed codegen cache registers
            # a hit, not just the first-specialization miss.
            expected_masked = list(masked.outputs)
            module_cg.evaluate_batch(masked)
            if masked.outputs != expected_masked:
                raise AssertionError(
                    f"codegen masked batch disagrees with the interpreted "
                    f"engine for {name} at N={n_resources}"
                )
            if module_cg.codegen.evaluate(module_cg.smbm) != out:
                raise AssertionError(
                    f"codegen cache-hit evaluation disagrees for {name} "
                    f"at N={n_resources}"
                )
            env[(n_resources, name)] = (module_b, uniform, masked, module_cg)
    return env


def _build_tenancy_env(n_tenants: int, quick: bool):
    """A multi-tenant switch with ``n_tenants`` policies sharing one
    pipeline, plus per-tenant solo reference modules.

    Each tenant gets one Cell column (the pipeline is sized so every
    tenant fits), a round-robin pick of the benchmark policies, and its
    own table filled from a per-tenant seed.  Isolation correctness is
    asserted as part of the build: every tenant's output through the
    shared switch must equal a dedicated solo module running the same
    policy on the same table.
    """
    builders = list(_policy_builders().items())
    quota = 16 if quick else 64
    params = PipelineParams(n=max(4, 2 * n_tenants))
    manager = TenantManager(
        METRICS, params, smbm_capacity=quota * n_tenants
    )
    solos: dict[str, FilterModule] = {}
    for t in range(n_tenants):
        name, build = builders[t % len(builders)]
        spec = TenantSpec(
            f"tenant{t}", build(), smbm_quota=quota, columns=1
        )
        tenant = manager.admit(spec)
        solo = FilterModule(quota, METRICS, build(), params)
        rng = random.Random(0xACE0 ^ t)
        for rid in range(quota):
            metrics = {m: rng.randrange(VALUE_RANGE) for m in METRICS}
            tenant.module.update_resource(rid, metrics)
            solo.update_resource(rid, metrics)
        solos[spec.name] = solo
    switch = ThanosSwitch.multi_tenant(manager)
    for tname, solo in solos.items():
        packet = Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: tname})
        switch.process(packet)
        if packet.metadata[META_FILTER_OUTPUT] != solo.evaluate().value:
            raise AssertionError(
                f"{tname} through the shared pipeline disagrees with its "
                "solo module"
            )
    return manager, switch


def _time_tenancy(manager: TenantManager, switch: ThanosSwitch,
                  batch_size: int, *, target_s: float) -> dict:
    """Per-packet and per-row cost of demuxed multi-tenant serving."""
    names = [t.name for t in manager]
    scalar_pkts = [
        Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: name})
        for name in names
    ]

    def scalar_round() -> None:
        for p in scalar_pkts:
            switch.process(p)

    batch_pkts = [
        Packet(metadata={META_FILTER_REQUEST: 1,
                         META_TENANT: names[i % len(names)]})
        for i in range(batch_size)
    ]
    t_scalar = _time_per_call(scalar_round, target_s=target_s) / len(names)
    t_batch = _time_per_call(
        lambda: switch.process_batch(batch_pkts), target_s=target_s
    ) / batch_size
    return {
        "tenants": len(names),
        "per_packet_us": round(t_scalar * 1e6, 3),
        "batch_us_per_row": round(t_batch * 1e6, 4),
    }


def _overhead_pct(base_us: float, metrics_us: float) -> float:
    return (metrics_us / base_us - 1.0) * 100.0 if base_us else 0.0


def run_sweep(quick: bool = False, batch: bool = False,
              tenants: int = 0) -> dict:
    """Run the benchmark sweep; returns the machine-readable result dict."""
    params = PipelineParams()
    sweep = QUICK_SWEEP if quick else FULL_SWEEP
    batch_size = QUICK_BATCH if quick else FULL_BATCH
    # The memoized hit path is ~0.4us; longer inner loops keep per-row
    # jitter well inside the 5% overhead budget asserted on full runs.
    target_s = 0.002 if quick else 0.02

    # Two identical environments: one built with observability disabled
    # (the default null registry), one with a live registry installed.
    base_env = _build_env(params, sweep)
    batch_env = _build_batch_env(params, sweep, batch_size) if batch else {}
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        inst_env = _build_env(params, sweep)
        # The instrumented batch environment only needs to *run* (its
        # build already serves one uniform and one masked batch per case,
        # plus the codegen evaluations) — the exporter snapshot below is
        # what CI asserts batch/codegen counters against.
        inst_batch_env = (
            _build_batch_env(params, sweep, batch_size) if batch else {}
        )
        # The tenancy environment is built (and timed, below) entirely
        # under the live registry: the per-tenant counter series landing
        # in the exporter snapshot is part of what CI asserts.
        tenancy_env = (
            _build_tenancy_env(tenants, quick) if tenants else None
        )

    # Time the two environments pairwise (interleaved repeat-by-repeat), so
    # slow machine drift hits both modes equally instead of biasing one
    # whole pass.
    base: dict[tuple[int, str], dict] = {}
    instrumented: dict[tuple[int, str], dict] = {}
    # The timing loops compare sub-microsecond paths; a garbage collection
    # landing inside one side of a pair (the environments now hold enough
    # objects — ECC shadow words, scrubbers, duplicate modules — to trigger
    # them regularly) shows up as a phantom several-percent overhead.
    fault_pair: dict[tuple[int, str], tuple[float, float]] = {}
    sanitize_pair: dict[tuple[int, str], tuple[float, float]] = {}
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    for key in base_env:
        (smbm_b, fast_b, ref_b, module_b, module_fb, _scrub_b,
         module_sb) = base_env[key]
        (smbm_i, fast_i, ref_i, module_i, _module_fi, _scrub_i,
         _module_si) = inst_env[key]
        base[key] = {}
        instrumented[key] = {}
        pairs = {
            "ref_us": (lambda: ref_b.evaluate(smbm_b),
                       lambda: ref_i.evaluate(smbm_i)),
            "fast_us": (lambda: fast_b.evaluate(smbm_b),
                        lambda: fast_i.evaluate(smbm_i)),
            "memo_us": (module_b.evaluate, module_i.evaluate),
        }
        for col, (fn_b, fn_i) in pairs.items():
            t_b, t_i = _time_pair(fn_b, fn_i, target_s=target_s)
            base[key][col] = t_b * 1e6
            instrumented[key][col] = t_i * 1e6
        # Plain memoized module vs the fault-machinery-armed one, timed as
        # an interleaved pair of its own so drift cancels here too.
        fault_pair[key] = _time_pair(
            module_b.evaluate, module_fb.evaluate, target_s=target_s
        )
        # Plain memoized module vs the sanitizer-armed one: the sanitizer
        # only works at commit time, so the read path must stay flat.
        sanitize_pair[key] = _time_pair(
            module_b.evaluate, module_sb.evaluate, target_s=target_s
        )
    # Batched serving paths (registry disabled): per-row cost of a uniform
    # batch through the memoized broadcast path, and per-call cost of the
    # specialized flat kernel (called on the tier itself: through the
    # module the memo would answer every call after the first).
    batch_times: dict[tuple[int, str], tuple[float, float]] = {}
    for key, (module_b, uniform, _masked, module_cg) in batch_env.items():
        t_batch = _time_per_call(
            lambda m=module_b, u=uniform: m.evaluate_batch(u),
            target_s=target_s,
        ) / batch_size
        t_cg = _time_per_call(
            lambda m=module_cg: m.codegen.evaluate(m.smbm),
            target_s=target_s,
        )
        batch_times[key] = (t_batch, t_cg)
    # Multi-tenant demuxed serving (instrumented: the per-tenant series
    # must land in the snapshot).
    tenancy = None
    if tenancy_env is not None:
        manager, tenant_switch = tenancy_env
        tenancy = _time_tenancy(
            manager, tenant_switch, batch_size, target_s=target_s
        )
    if gc_was_enabled:
        gc.enable()
    metrics_snapshot = obs.snapshot(registry)
    del inst_env  # kept alive through the snapshot (weakref collect hooks)
    del inst_batch_env
    del tenancy_env

    results: list[dict] = []
    for key in base:
        n_resources, name = key
        b, m = base[key], instrumented[key]
        t_plain, t_fault = fault_pair[key]
        _t_plain_s, t_san = sanitize_pair[key]
        row = {
            "N": n_resources,
            "policy": name,
            "ref_us": round(b["ref_us"], 3),
            "fast_us": round(b["fast_us"], 3),
            "memo_us": round(b["memo_us"], 3),
            "fast_us_metrics": round(m["fast_us"], 3),
            "memo_us_metrics": round(m["memo_us"], 3),
            "memo_us_faultarmed": round(t_fault * 1e6, 3),
            "memo_us_sanitize": round(t_san * 1e6, 3),
            "speedup_fast": round(b["ref_us"] / b["fast_us"], 2),
            "speedup_memo": round(b["ref_us"] / b["memo_us"], 2),
        }
        if key in batch_times:
            t_batch, t_cg = batch_times[key]
            row["batch_us"] = round(t_batch * 1e6, 4)
            row["codegen_us"] = round(t_cg * 1e6, 3)
            row["speedup_batch"] = round(b["fast_us"] / (t_batch * 1e6), 2)
            row["speedup_codegen"] = round(b["fast_us"] / (t_cg * 1e6), 2)
        results.append(row)

    # Aggregate enabled-vs-disabled overhead over total sweep time (sums
    # are far more noise-robust than per-row ratios on sub-us paths).
    overhead = {
        path: round(_overhead_pct(
            sum(b[f"{path}_us"] for b in base.values()),
            sum(m[f"{path}_us"] for m in instrumented.values()),
        ), 2)
        for path in ("ref", "fast", "memo")
    }
    fault_overhead = round(_overhead_pct(
        sum(p for p, _ in fault_pair.values()),
        sum(f for _, f in fault_pair.values()),
    ), 2)
    sanitize_overhead = round(_overhead_pct(
        sum(p for p, _ in sanitize_pair.values()),
        sum(s for _, s in sanitize_pair.values()),
    ), 2)

    return {
        "bench": "fastpath",
        "quick": quick,
        "batch": batch,
        "batch_size": batch_size if batch else None,
        "pipeline_params": {
            "n": params.n, "k": params.k, "f": params.f,
            "chain_length": params.chain_length,
        },
        "sweep": list(sweep),
        "results": results,
        "tenancy": tenancy,
        "metrics_overhead_pct": overhead,
        "fault_machinery_overhead_pct": fault_overhead,
        "sanitize_overhead_pct": sanitize_overhead,
        "metrics_snapshot": metrics_snapshot,
    }


def _report_text(data: dict) -> str:
    with_batch = data.get("batch", False)
    rows = []
    for r in data["results"]:
        row = [
            str(r["N"]), r["policy"],
            f"{r['ref_us']:.1f}", f"{r['fast_us']:.1f}", f"{r['memo_us']:.2f}",
            f"{r['memo_us_metrics']:.2f}",
            f"{r['speedup_fast']:.1f}x", f"{r['speedup_memo']:.0f}x",
        ]
        if with_batch:
            row += [
                f"{r['batch_us']:.3f}", f"{r['codegen_us']:.2f}",
                f"{r['speedup_batch']:.0f}x", f"{r['speedup_codegen']:.1f}x",
            ]
        rows.append(row)
    headers = ["N", "policy", "ref us", "fast us", "memo us",
               "memo+metrics us", "fast speedup", "memo speedup"]
    if with_batch:
        headers += ["batch us/row", "codegen us", "batch speedup",
                    "codegen speedup"]
    table = format_table(
        "Fast path vs O(N) reference (per-packet policy evaluation)",
        headers,
        rows,
    )
    o = data["metrics_overhead_pct"]
    overhead = (
        "Metrics-enabled overhead vs disabled (sweep totals): "
        f"ref {o['ref']:+.2f}%, fast {o['fast']:+.2f}%, memo {o['memo']:+.2f}%"
        "\nFault-machinery-armed memoized path (self-healing + ECC + "
        f"scrubber, idle) vs plain: {data['fault_machinery_overhead_pct']:+.2f}%"
        "\nSanitizer-armed memoized path (commit-time invariant checks) "
        f"vs plain: {data['sanitize_overhead_pct']:+.2f}%"
    )
    counters = format_filter_counters(
        "FilterModule evaluation counters (from the metrics registry)",
        data["metrics_snapshot"],
    )
    text = table + "\n\n" + overhead + "\n\n" + counters
    tenancy = data.get("tenancy")
    if tenancy:
        lines = [
            f"Multi-tenant demuxed serving ({tenancy['tenants']} tenants, "
            "one Cell column each):",
            f"  per-packet (scalar demux): {tenancy['per_packet_us']:.3f} us",
            f"  per-row (batched demux):   {tenancy['batch_us_per_row']:.4f} us",
        ]
        evals = _per_tenant(data["metrics_snapshot"],
                            "filter_evaluations_total")
        hits = _per_tenant(data["metrics_snapshot"], "filter_memo_hits_total")
        for name in sorted(evals):
            lines.append(
                f"  {name}: {evals[name]} evaluations, "
                f"{hits.get(name, 0)} memo hits"
            )
        text += "\n\n" + "\n".join(lines)
    if with_batch:
        text += "\n\n" + format_engine_counters(
            f"Batched engine / codegen counters "
            f"(B={data['batch_size']}, from the metrics registry)",
            data["metrics_snapshot"],
        )
    return text


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny-N sweep for CI: exercises the fast path without "
             "meaningful timings",
    )
    parser.add_argument(
        "--batch", action="store_true",
        help="also time the batched serving paths: per-row cost of a "
             f"uniform batch (B={FULL_BATCH}, {QUICK_BATCH} in quick mode) "
             "through the memoized broadcast path and per-call cost of the "
             "specialized codegen kernel, as batch_us/codegen_us columns",
    )
    parser.add_argument(
        "--tenants", type=int, default=0, metavar="N",
        help="also benchmark N tenants' policies demuxed over one shared "
             "pipeline (scalar and batched paths), with per-tenant counter "
             "series in the metrics snapshot",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help=f"where to write the JSON results (default: {DEFAULT_OUT}; "
             "quick mode defaults to benchmarks/results/fastpath_quick.json "
             "so it never clobbers the committed full-sweep numbers)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        if args.quick:
            args.out = pathlib.Path(__file__).parent / "results" / "fastpath_quick.json"
            args.out.parent.mkdir(exist_ok=True)
        else:
            args.out = DEFAULT_OUT

    if args.tenants < 0:
        parser.error("--tenants must be >= 0")
    data = run_sweep(quick=args.quick, batch=args.batch,
                     tenants=args.tenants)
    emit("fastpath_quick" if args.quick else "fastpath", _report_text(data))
    if args.batch and not args.quick:
        for row in data["results"]:
            if row["N"] != max(data["sweep"]):
                continue
            assert row["speedup_batch"] >= 20.0, (
                f"batched path at N={row['N']} only {row['speedup_batch']}x "
                f"over the scalar fast path for {row['policy']} "
                "(acceptance: >= 20x)"
            )
        cg_hits = _codegen_hit_counters(data["metrics_snapshot"])
        assert cg_hits and all(v > 0 for v in cg_hits.values()), (
            "codegen cache should have served repeat specializations "
            f"(snapshot codegen-hit series: {cg_hits})"
        )
    if not args.quick:
        overhead = data["metrics_overhead_pct"]
        for path, pct in overhead.items():
            assert pct < 5.0, (
                f"metrics-enabled {path} path regressed {pct:.2f}% "
                "(budget: < 5%)"
            )
        fault_pct = data["fault_machinery_overhead_pct"]
        assert fault_pct < 5.0, (
            f"fault-machinery-armed memoized path regressed {fault_pct:.2f}% "
            "(budget: < 5%)"
        )
        sanitize_pct = data["sanitize_overhead_pct"]
        assert sanitize_pct < 10.0, (
            f"sanitizer-armed memoized path regressed {sanitize_pct:.2f}% "
            "(budget: < 10%)"
        )
    serialisable = {k: v for k, v in data.items() if not k.startswith("_")}
    args.out.write_text(json.dumps(serialisable, indent=2) + "\n")
    print(f"wrote {args.out}")
    return data


def _memo_hit_counters(metrics_snapshot: dict) -> dict[str, float]:
    """The memo-hit series from an exporter snapshot, keyed by series."""
    return {
        series: value
        for series, value in metrics_snapshot.get("counters", {}).items()
        if series.startswith("filter_memo_hits_total")
    }


def _per_tenant(metrics_snapshot: dict, name: str) -> dict[str, int]:
    """Tenant -> summed value of the tenant-labelled ``name`` series."""
    totals: dict[str, int] = {}
    for series, value in metrics_snapshot.get("counters", {}).items():
        series_name, labels = parse_series(series)
        if series_name == name and "tenant" in labels:
            tenant = labels["tenant"]
            totals[tenant] = totals.get(tenant, 0) + int(value)
    return totals


def _codegen_hit_counters(metrics_snapshot: dict) -> dict[str, float]:
    """The codegen-cache-hit series from an exporter snapshot."""
    return {
        series: value
        for series, value in metrics_snapshot.get("counters", {}).items()
        if series.startswith("codegen_cache_hits_total")
    }


def test_fastpath_quick():
    """pytest entry point: quick sweep, correctness only (no timing asserts,
    no JSON artefact — CI stays free of timing flakiness)."""
    data = run_sweep(quick=True)
    assert data["results"], "sweep produced no results"
    for row in data["results"]:
        assert row["fast_us"] > 0 and row["ref_us"] > 0 and row["memo_us"] > 0
        assert row["fast_us_metrics"] > 0 and row["memo_us_metrics"] > 0
        assert row["memo_us_faultarmed"] > 0
        assert row["memo_us_sanitize"] > 0
    assert "fault_machinery_overhead_pct" in data
    assert "sanitize_overhead_pct" in data
    hits = _memo_hit_counters(data["metrics_snapshot"])
    assert hits and all(v > 0 for v in hits.values()), (
        "memoized modules should have served repeated evaluations from "
        f"cache (snapshot memo-hit series: {hits})"
    )


def test_fastpath_quick_batch():
    """pytest entry point for the batched lane: quick sweep, correctness
    and counter plumbing only (timing asserts live in the full run and the
    CI bench-smoke step)."""
    data = run_sweep(quick=True, batch=True)
    assert data["batch"] and data["batch_size"] == QUICK_BATCH
    for row in data["results"]:
        assert row["batch_us"] > 0 and row["codegen_us"] > 0
        assert row["speedup_batch"] > 0 and row["speedup_codegen"] > 0
    cg_hits = _codegen_hit_counters(data["metrics_snapshot"])
    assert cg_hits and all(v > 0 for v in cg_hits.values()), (
        f"codegen cache hits missing from snapshot: {cg_hits}"
    )
    counters = data["metrics_snapshot"].get("counters", {})
    assert any(s.startswith("filter_batch_path_rows_total") for s in counters)


def test_fastpath_quick_tenants():
    """pytest entry point for the tenancy lane: two tenants demuxed over
    one shared pipeline, per-tenant counter series in the snapshot."""
    data = run_sweep(quick=True, tenants=2)
    tenancy = data["tenancy"]
    assert tenancy["tenants"] == 2
    assert tenancy["per_packet_us"] > 0
    assert tenancy["batch_us_per_row"] > 0
    evals = _per_tenant(data["metrics_snapshot"], "filter_evaluations_total")
    assert sorted(evals) == ["tenant0", "tenant1"], (
        f"expected per-tenant filter series in the snapshot, got: "
        f"{sorted(data['metrics_snapshot'].get('counters', {}))}"
    )
    assert all(count > 0 for count in evals.values())


if __name__ == "__main__":
    main()

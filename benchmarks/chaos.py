"""Seeded chaos harness: inject faults, assert each contract holds.

One :class:`~repro.faults.FaultInjector` (all randomness from ``--seed``)
drives five fault phases against the contracts they check, and every
phase asserts its invariants inline:

* **replication** — same-cycle write contention between replica pipelines
  raises :class:`~repro.switch.replication.WriteContention` naming exactly
  the clashing pair, and the table stays usable afterwards (§5.1.5).
* **l4lb_crash** — a graphdb server crashes mid-trace; probe retries
  exhaust, the server is evicted (row deleted, flows drained and
  redistributed), and an answered probe later readmits it.  Every query in
  the trace still completes exactly once (packet conservation).
* **link_flap** — a leaf-spine uplink goes down and comes back; TCP
  retransmission recovers every flow, and the fabric conserves packets.
* **live_migration** — a tenant moves between two switch instances
  (scalar → batched) while a controller client keeps writing; one write
  is injected around the dual-running gate, the cutover conservation
  gate must catch the divergence, and after re-convergence the move
  completes with a served trace bit-identical to a never-migrated twin —
  zero packets lost, zero control ops dropped.
* **crash_recovery** — the controller is killed at *every* WAL-append /
  apply crash point of a scripted op schedule (before the append, mid
  torn write, after the append, after the apply), restarted from disk,
  and the recovered switch must be bit-identical to a never-crashed
  golden twin — zero acked control ops lost, every torn tail truncated,
  every unclean shutdown detected.  Runs on both the scalar and batched
  backends.

The run finishes with the **parity check**: for every *detectable* fault
class (``migration_divergence``, ``controller_crash``),
``faults_detected_total`` must equal ``faults_injected_total`` in the obs
registry — nothing injected goes unseen, nothing is detected twice.  Every
invariant, parity included, is asserted by the run itself, so the exit
status is the check (CI keys on nothing else); the JSON artefact embeds the
full metrics snapshot plus the parity table for inspection.

Run directly::

    PYTHONPATH=src python benchmarks/chaos.py --seed 7            # full
    PYTHONPATH=src python benchmarks/chaos.py --seed 7 --quick    # CI mode
    PYTHONPATH=src python benchmarks/chaos.py --phases crash_recovery

or via ``pytest benchmarks/chaos.py`` (quick schedule, fixed seed).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import random
import sys
import tempfile

if __package__ in (None, ""):  # direct script execution: make the
    # `benchmarks` package importable without PYTHONPATH tweaks
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from repro import obs
from repro.core.policy import Policy, TableRef, intersection, predicate
from repro.engine.batch import META_FILTER_OUTPUT, META_FILTER_REQUEST
from repro.errors import IntegrityError
from repro.faults import FaultInjector, SimulatedCrash
from repro.graphdb.cluster import GraphDBCluster
from repro.netsim.sim import Simulator
from repro.netsim.topology import build_leaf_spine
from repro.netsim.transport import TcpFlow
from repro.rmt.packet import META_TENANT, Packet
from repro.serving import (
    BatchedBackend,
    Controller,
    ScalarBackend,
    TableWrite,
    WriteAheadLog,
    canonical_bytes,
    recover,
)
from repro.switch.filter_module import FilterModule
from repro.switch.replication import ReplicatedSMBM, WriteContention
from repro.tenancy.manager import TenantManager, TenantSpec
from repro.workloads.traces import ResourceConsumptionTrace, ZipfQueryTrace

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "benchmarks" / "results" / "chaos.json"
DEFAULT_SEED = 7

#: Fault classes with a detector wired to ``faults_detected_total``; the
#: parity invariant is asserted exactly for these.  (``write_contention``
#: is detected synchronously as an exception, ``link_flap``/``probe_loss``/
#: ``server_crash`` are *masked* rather than detected — TCP retransmission
#: and probe retries absorb them.)
DETECTABLE_KINDS = ("migration_divergence", "controller_crash")

METRICS = ("cpu", "mem")


def _policy() -> Policy:
    return Policy(
        intersection(
            predicate(TableRef(), "cpu", "<", 70),
            predicate(TableRef(), "mem", ">", 100),
        ),
        name="chaos",
    )


class _RandomRouting:
    """Seeded per-switch routing for the link-flap fabric."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def choose(self, switch, packet, candidates):
        return self.rng.choice(candidates)


# -- phases ---------------------------------------------------------------------


def phase_replication(inj: FaultInjector, *, n_rows: int) -> dict:
    """Write contention -> refusal, with the table usable afterwards.
    Runs with the sanitizer armed: the refusal must name *exactly* the
    injected conflicting pair, and the benign single-writer cycles must
    raise nothing."""
    rep = ReplicatedSMBM(3, n_rows, METRICS, sanitize=True)
    for rid in range(n_rows):
        rep.issue_update(0, rid, {"cpu": inj.rng.randrange(100),
                                  "mem": inj.rng.randrange(400)})
        rep.commit_cycle()

    inj.contend_writes(rep, 0, {
        1: {"cpu": 11, "mem": 11},
        2: {"cpu": 22, "mem": 22},
    })
    pairs = None
    try:
        rep.commit_cycle()
    except WriteContention as exc:
        pairs = exc.pairs
    assert pairs is not None, "same-cycle writes did not raise WriteContention"
    # Differential check: the refusal names exactly the injected
    # conflicting pair — no more, no less.
    assert set(pairs) == {(0, 1, 2)}, pairs
    # Regression: the failed cycle left no stale staged writes behind, and
    # the benign follow-up cycle raises nothing.
    rep.issue_update(1, 0, {"cpu": 33, "mem": 33})
    rep.commit_cycle()
    assert rep.replica(0).metrics_of(0) == {"cpu": 33, "mem": 33}
    rep.check_synchronised()
    return {
        "contention_raised": True,
        "pairs": [list(p) for p in pairs],
    }


def phase_l4lb_crash(inj: FaultInjector, *, n_queries: int) -> dict:
    """Crash a graphdb server mid-trace: probe retries exhaust, the L4LB
    evicts it and drains its flows; a later probe readmits it.  Every
    query completes exactly once."""
    seed = inj.rng.randrange(2**32)
    sim = Simulator()
    trace = ResourceConsumptionTrace(4, random.Random(seed))
    cluster = GraphDBCluster(sim, 4, 2, trace)
    queries = ZipfQueryTrace(100, random.Random(seed + 1)).generate(
        n_queries, clients=[0, 1], rate_hz=600.0
    )
    cluster.submit_trace(queries)

    victim = cluster.servers[inj.rng.randrange(len(cluster.servers))]
    # A transient probe loss on another server must be absorbed by the
    # retry budget without eviction.
    bystander = cluster.servers[
        (victim.server_id + 1) % len(cluster.servers)
    ]
    sim.at(0.020, lambda: inj.drop_probes(bystander, 1))
    sim.at(0.050, lambda: inj.crash_server(victim))
    sim.at(0.250, victim.restore)
    sim.run(until=60.0)

    assert len(cluster.results) == n_queries, (
        f"query conservation violated: {len(cluster.results)}/{n_queries}"
    )
    served_ids = sorted(r.query.query_id for r in cluster.results)
    assert served_ids == sorted(q.query_id for q in queries), (
        "queries duplicated or lost across the crash"
    )
    kinds = [e.kind for e in cluster.failover_log
             if e.server == victim.server_id]
    assert "evicted" in kinds, "crashed server never evicted"
    assert "readmitted" in kinds, "restored server never readmitted"
    assert not cluster.down_servers, "server still out of rotation at end"
    assert bystander.server_id not in {
        e.server for e in cluster.failover_log if e.kind == "evicted"
    }, "transient probe loss must not evict"
    recovery_s = None
    t_evict = next(e.time for e in cluster.failover_log
                   if e.server == victim.server_id and e.kind == "evicted")
    t_back = next(e.time for e in cluster.failover_log
                  if e.server == victim.server_id and e.kind == "readmitted")
    recovery_s = t_back - t_evict
    return {
        "victim": victim.server_id,
        "failover_log": [
            [round(e.time, 6), e.server, e.kind, e.detail]
            for e in cluster.failover_log
        ],
        "probe_timeouts": cluster.probe_timeouts,
        "recovery_s": round(recovery_s, 6),
        "queries_completed": len(cluster.results),
    }


def phase_link_flap(inj: FaultInjector, *, n_flows: int) -> dict:
    """Cut a leaf-spine uplink under live TCP flows; transport recovery
    must complete every flow and the fabric must conserve packets."""
    seed = inj.rng.randrange(2**32)
    sim = Simulator()
    net = build_leaf_spine(
        sim, n_leaf=2, n_spine=1, hosts_per_leaf=2,
        policy_factory=lambda n: _RandomRouting(seed),
    )
    rng = random.Random(seed + 1)
    for fid in range(n_flows):
        # Cross-leaf flows so every one traverses the spine uplinks.
        src = rng.choice([0, 1])
        dst = rng.choice([2, 3])
        net.start_flow(TcpFlow(fid, src, dst,
                               size_bytes=rng.randint(20_000, 120_000),
                               start_time=rng.random() * 1e-4))
    uplink = net.links[("leaf0", "spine0")]
    sim.at(0.5e-3, lambda: inj.fail_link(uplink))
    sim.at(2.0e-3, uplink.restore)
    sim.run(until=5.0)

    assert len(net.recorder.completed) == n_flows, (
        f"flow liveness violated: {len(net.recorder.completed)}/{n_flows}"
    )
    assert net.recorder.in_flight == 0
    for link in net.links.values():
        assert link.queued_bytes == 0 and link.queued_packets == 0, (
            f"{link.name} failed to drain"
        )
    return {
        "flows_completed": len(net.recorder.completed),
        "flap_drops": uplink.packets_dropped,
    }


def phase_live_migration(inj: FaultInjector, *, rounds: int) -> dict:
    """Move a live tenant between two switch instances under a
    controller-driven write stream, with one write injected around the
    dual-running gate: the cutover conservation gate must trip, and after
    re-convergence the served trace must be bit-identical to a
    never-migrated twin — zero packets lost, zero control ops dropped."""
    # rid period 6: every row is inserted before dual-running begins.
    # An update is a delete+add composite that re-enqueues the row's FIFO
    # seq, so re-convergence is order-sensitive: the bypass is injected
    # immediately before the cutover attempt, and replaying it on the
    # destination restores bit-identity (any later dual write in between
    # would make the divergence unrepairable — which the gate would also
    # catch, but then the phase could never complete).
    assert rounds >= 18 and rounds % 6 == 0
    fill_rng = random.Random(inj.rng.randrange(2**32))
    writes = [(i % 6, {"cpu": fill_rng.randrange(100),
                       "mem": fill_rng.randrange(400)})
              for i in range(rounds)]
    begin_at = rounds // 3      # enter dual-running here
    bypass_at = begin_at + 4    # the injected gate-bypass write
    cutover_at = bypass_at + 1  # first attempt trips, then re-converge

    # The golden twin: identical write schedule, never migrated.
    twin = FilterModule(8, METRICS, _policy())
    golden = []
    for rid, metrics in writes:
        twin.update_resource(rid, metrics)
        golden.append(twin.evaluate().value)

    src = ScalarBackend(TenantManager(METRICS, smbm_capacity=16))
    dst = BatchedBackend(TenantManager(METRICS, smbm_capacity=16))

    def serve() -> int:
        post_cutover = "mig" in dst.manager and "mig" not in src.manager
        backend = dst if post_cutover else src
        packet = Packet(metadata={META_FILTER_REQUEST: 1,
                                  META_TENANT: "mig"})
        backend.process_batch([packet])
        return packet.metadata[META_FILTER_OUTPUT]

    async def scenario() -> dict:
        trace, gate_trips, ops_applied = [], 0, 0
        stats: dict = {}
        migration = None
        bypassed = None
        async with Controller(src) as ctl:
            await ctl.add_tenant(TenantSpec("mig", _policy(), smbm_quota=8))
            for i, (rid, metrics) in enumerate(writes):
                if i == begin_at:
                    migration = await ctl.begin_migration("mig", dst)
                if i == cutover_at:
                    try:
                        await ctl.cutover("mig")
                    except IntegrityError:
                        gate_trips += 1
                        # Re-converge: land the bypassed write on the
                        # destination too, then the retry goes through.
                        rid_b, metrics_b = bypassed
                        dst.manager.get("mig").module.update_resource(
                            rid_b, metrics_b
                        )
                        stats = await ctl.cutover("mig")
                    else:
                        raise AssertionError(
                            "cutover gate missed the bypassed write"
                        )
                if i == bypass_at:
                    inj.bypass_migration_write(migration, rid, metrics)
                    bypassed = (rid, metrics)
                else:
                    await ctl.update_resource("mig", rid, metrics)
                    ops_applied += 1
                trace.append(serve())
            await ctl.drain()
        return {"trace": trace, "gate_trips": gate_trips,
                "ops_applied": ops_applied, "stats": stats}

    out = asyncio.run(scenario())
    assert out["gate_trips"] == 1, "conservation gate never tripped"
    assert out["trace"] == golden, "the move was visible in the trace"
    assert out["stats"]["dual_writes"] > 0
    assert "mig" not in src.manager, "source slice not returned to pool"
    assert "mig" in dst.manager
    # Zero dropped control ops: every scheduled write (the bypassed one
    # included, after re-convergence) landed exactly once — the final
    # table equals the twin's.
    dst_smbm = dst.manager.get("mig").module.smbm
    assert dst_smbm.snapshot() == twin.smbm.snapshot(), (
        "post-migration table diverged from the never-migrated twin"
    )
    # Packet conservation: every serve produced exactly one output.
    counters = obs.snapshot(obs.get_registry()).get("counters", {})
    served = sum(v for k, v in counters.items()
                 if k.startswith("backend_packets_total"))
    assert served == rounds == len(out["trace"])
    return {
        "rounds": rounds,
        "begin_at": begin_at,
        "bypass_at": bypass_at,
        "cutover_at": cutover_at,
        "gate_trips": out["gate_trips"],
        "control_ops_applied": out["ops_applied"],
        "dual_writes": out["stats"]["dual_writes"],
        "cutover_version": out["stats"]["cutover_version"],
        "packets_served": len(out["trace"]),
        "trace_bit_identical": out["trace"] == golden,
    }


#: The crash sweep's scripted schedule has 9 control ops with a
#: checkpoint submitted after this many of them; the WAL then carries
#: appends [op0..op4, checkpoint record, op5..op8, shutdown marker].
CRASH_CKPT_AT = 5
#: Control ops applied before / after the k-th WAL append (k = 0..10,
#: derived from the fixed schedule above): a crash *before* or *mid*
#: append k must recover to the BEFORE[k]-op golden state (the record
#: never became durable), a crash *after* append k — or after apply k —
#: to the AFTER[k]-op state (replay finishes the logged op).
_CRASH_APPLIED_BEFORE = (0, 1, 2, 3, 4, 5, 5, 6, 7, 8, 9)
_CRASH_APPLIED_AFTER = (1, 2, 3, 4, 5, 5, 6, 7, 8, 9, 9)


def _swap_policy() -> Policy:
    return Policy(
        predicate(TableRef(), "cpu", "<", 50), name="chaos-swap"
    )


def _crash_ops(rng: random.Random) -> list:
    """The scripted 9-op control schedule every victim and golden twin
    runs.  Row values are drawn once, so each (site x occurrence) victim
    replays the identical schedule."""

    def row() -> dict[str, int]:
        return {"cpu": rng.randrange(100), "mem": rng.randrange(400)}

    r1, r2, r3, w1, w2 = row(), row(), row(), row(), row()
    return [
        ("add_tenant:a", lambda ctl: ctl.add_tenant(
            TenantSpec("a", _policy(), smbm_quota=8))),
        ("update:a/1", lambda ctl: ctl.update_resource("a", 1, r1)),
        ("update:a/2", lambda ctl: ctl.update_resource("a", 2, r2)),
        ("hot_swap:a", lambda ctl: ctl.hot_swap("a", _swap_policy())),
        ("add_tenant:b", lambda ctl: ctl.add_tenant(
            TenantSpec("b", _policy(), smbm_quota=8))),
        ("write_batch:b", lambda ctl: ctl.write_batch("b", [
            TableWrite("b", 1, w1), TableWrite("b", 2, w2)])),
        ("update:b/3", lambda ctl: ctl.update_resource("b", 3, r3)),
        ("remove_resource:a/2", lambda ctl: ctl.remove_resource("a", 2)),
        ("remove_tenant:b", lambda ctl: ctl.remove_tenant("b")),
    ]


def phase_crash_recovery(inj: FaultInjector) -> dict:
    """Kill the controller at every WAL-append / apply crash point,
    restart from disk, and require the recovered switch to be
    bit-identical to a never-crashed golden twin — zero acked control ops
    lost, every torn tail truncated, every unclean shutdown detected."""
    ops = _crash_ops(random.Random(inj.rng.randrange(2**32)))
    n_ops = len(ops)
    assert n_ops == 9 and len(_CRASH_APPLIED_BEFORE) == n_ops + 2

    backends = {
        "scalar": lambda: ScalarBackend(
            TenantManager(METRICS, smbm_capacity=16)),
        "batched": lambda: BatchedBackend(
            TenantManager(METRICS, smbm_capacity=16)),
    }

    def _state(backend) -> bytes:
        return canonical_bytes(backend.snapshot().payload())

    def golden_states(make_backend) -> list[bytes]:
        """golden[m] = canonical switch state after m control ops."""
        backend = make_backend()
        states: list[bytes] = []

        async def run() -> None:
            async with Controller(backend) as ctl:
                states.append(_state(backend))
                for _, op in ops:
                    await op(ctl)
                    states.append(_state(backend))

        asyncio.run(run())
        return states

    async def victim(make_backend, wal_path, hook):
        """One controller life: run the schedule until the armed crash
        point (if any) kills it.  Returns (acked ops, crashed)."""
        backend = make_backend()
        wal = WriteAheadLog(wal_path, crash_hook=hook)
        acked = 0
        try:
            async with Controller(backend, wal=wal) as ctl:
                for i, (_, op) in enumerate(ops):
                    if i == CRASH_CKPT_AT:
                        await ctl.checkpoint()
                    await op(ctl)
                    acked += 1
            return acked, False
        except SimulatedCrash:
            return acked, True

    # Every (site x occurrence) pair.  wal.* sites fire once per append
    # (marker records included); ctl.after_apply once per applied op
    # (the checkpoint op included).  A crash *after* the shutdown marker
    # is durable leaves a clean log — indistinguishable from (and as
    # harmless as) a clean shutdown — so after_append stops at the last
    # control op's append.
    sweep: list[tuple[str, int, int]] = []
    for k in range(n_ops + 2):
        sweep.append(("wal.before_append", k, _CRASH_APPLIED_BEFORE[k]))
        sweep.append(("wal.torn_append", k, _CRASH_APPLIED_BEFORE[k]))
        if k <= n_ops:
            sweep.append(("wal.after_append", k, _CRASH_APPLIED_AFTER[k]))
    for k in range(n_ops + 1):
        sweep.append(("ctl.after_apply", k, _CRASH_APPLIED_AFTER[k]))

    crash_runs = 0
    replayed_total = skipped_total = torn_tails = 0
    for backend_name, make_backend in backends.items():
        golden = golden_states(make_backend)

        # Baseline: no crash armed — clean shutdown, clean recovery.
        with tempfile.TemporaryDirectory() as tmp_str:
            tmp = pathlib.Path(tmp_str)
            acked, crashed = asyncio.run(victim(
                make_backend, tmp / "ops.wal", None))
            assert acked == n_ops and not crashed
            report = recover(tmp / "ops.wal", lambda _ckpt: make_backend())
            assert not report.unclean and report.torn == 0
            assert _state(report.backend) == golden[n_ops], (
                f"{backend_name}: clean-shutdown replay diverged"
            )

        for site, at_op, expect_m in sweep:
            hook = inj.arm_crash(site, at_op=at_op)
            with tempfile.TemporaryDirectory() as tmp_str:
                tmp = pathlib.Path(tmp_str)
                wal_path = tmp / "ops.wal"
                acked, crashed = asyncio.run(victim(
                    make_backend, wal_path, hook))
                tag = f"{backend_name}:{site}@{at_op}"
                assert crashed, f"{tag}: armed crash never fired"
                # Zero acked-op loss: everything the client saw complete
                # is inside the recovered state.
                assert acked <= expect_m, (
                    f"{tag}: {acked} acked ops but only {expect_m} "
                    "survive recovery"
                )
                report = recover(wal_path,
                                 lambda _ckpt: make_backend())
                assert report.unclean, f"{tag}: crash not detected"
                assert report.errors == [], f"{tag}: {report.errors}"
                expected_torn = 1 if site == "wal.torn_append" else 0
                assert report.torn == expected_torn, (
                    f"{tag}: torn={report.torn}"
                )
                assert _state(report.backend) == golden[expect_m], (
                    f"{tag}: recovered state is not bit-identical to "
                    f"the golden twin after {expect_m} ops"
                )
                crash_runs += 1
                replayed_total += report.replayed
                skipped_total += report.skipped
                torn_tails += report.torn

    # The sweep covered every crash point on both backends, and both
    # recovery arms (replay, torn-tail truncation) actually ran.
    assert crash_runs == len(backends) * len(sweep), (
        f"sweep incomplete: {crash_runs} of {len(backends) * len(sweep)}"
    )
    assert replayed_total > 0, "no record was ever replayed"
    assert torn_tails > 0, "torn-append arm never truncated a tail"
    return {
        "backends": sorted(backends),
        "ops_scheduled": n_ops,
        "checkpoint_at": CRASH_CKPT_AT,
        "crash_points_swept": len(sweep),
        "crash_runs": crash_runs,
        "records_replayed": replayed_total,
        "records_skipped_before_checkpoint": skipped_total,
        "torn_tails_truncated": torn_tails,
    }


# -- driver ---------------------------------------------------------------------


def parity_table(registry) -> dict:
    """``{kind: {injected, detected, ok}}`` for the detectable classes."""
    snap = obs.snapshot(registry)
    counters = snap.get("counters", {})

    def _get(name: str, kind: str) -> int:
        return int(counters.get(f'{name}{{kind="{kind}"}}', 0))

    table = {}
    for kind in DETECTABLE_KINDS:
        injected = _get("faults_injected_total", kind)
        detected = _get("faults_detected_total", kind)
        table[kind] = {
            "injected": injected,
            "detected": detected,
            "ok": injected == detected,
        }
    return table


def run_chaos(seed: int = DEFAULT_SEED, quick: bool = False,
              phases: "list[str] | None" = None) -> dict:
    """Run the seeded fault schedule; returns the JSON-ready report.

    ``phases`` selects a subset by name (default: all); the parity check
    always runs (un-exercised kinds hold 0 == 0).
    """
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        inj = FaultInjector(seed)
        n_rows = 8 if quick else 24
        schedule: dict = {
            "replication": lambda: phase_replication(inj, n_rows=n_rows),
            "l4lb_crash": lambda: phase_l4lb_crash(
                inj, n_queries=100 if quick else 300
            ),
            "link_flap": lambda: phase_link_flap(
                inj, n_flows=2 if quick else 6
            ),
            "live_migration": lambda: phase_live_migration(
                inj, rounds=18 if quick else 36
            ),
            # The crash sweep is exact and fast (84 runs, ~1.5 s): the
            # full matrix runs in quick mode too.
            "crash_recovery": lambda: phase_crash_recovery(inj),
        }
        if phases is not None:
            unknown = sorted(set(phases) - set(schedule))
            if unknown:
                raise ValueError(
                    f"unknown phase(s) {unknown}; "
                    f"choose from {sorted(schedule)}"
                )
            schedule = {name: fn for name, fn in schedule.items()
                        if name in set(phases)}
        results = {name: fn() for name, fn in schedule.items()}
        parity = parity_table(registry)
        snapshot = obs.snapshot(registry)

    for kind, row in parity.items():
        assert row["ok"], (
            f"parity violated for {kind}: injected {row['injected']}, "
            f"detected {row['detected']}"
        )
    injected = {k: v for k, v in snapshot.get("counters", {}).items()
                if k.startswith("faults_injected_total")}
    assert injected and all(v > 0 for v in injected.values()), (
        f"expected nonzero fault-injection counters, got: {injected}"
    )

    return {
        "bench": "chaos",
        "seed": seed,
        "quick": quick,
        "phases_selected": sorted(results),
        "injected_total": len(inj.events),
        "events": [
            {"seq": e.seq, "kind": e.kind, "target": e.target,
             "detail": e.detail}
            for e in inj.events
        ],
        "phases": results,
        "parity": parity,
        "metrics_snapshot": snapshot,
    }


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"fault schedule seed (default {DEFAULT_SEED})")
    parser.add_argument("--quick", action="store_true",
                        help="short schedule for CI")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help=f"JSON output path (default: {DEFAULT_OUT})")
    parser.add_argument("--phases", default=None,
                        help="comma-separated phase subset, e.g. "
                             "'crash_recovery,live_migration' "
                             "(default: all)")
    args = parser.parse_args(argv)
    out = args.out or DEFAULT_OUT
    out.parent.mkdir(exist_ok=True)

    selected = args.phases.split(",") if args.phases else None
    data = run_chaos(seed=args.seed, quick=args.quick, phases=selected)
    out.write_text(json.dumps(data, indent=2) + "\n")
    lines = [
        f"chaos schedule seed={data['seed']} "
        f"({'quick' if data['quick'] else 'full'}): "
        f"{data['injected_total']} faults injected",
    ]
    for kind, row in data["parity"].items():
        lines.append(
            f"  {kind:20s} injected={row['injected']:3d} "
            f"detected={row['detected']:3d} {'ok' if row['ok'] else 'FAIL'}"
        )
    print("\n".join(lines))
    print(f"wrote {out}")
    return data


def test_chaos_smoke():
    """pytest entry point: the quick schedule at the CI seed."""
    data = run_chaos(seed=DEFAULT_SEED, quick=True)
    assert all(row["ok"] for row in data["parity"].values())
    assert data["injected_total"] > 0


if __name__ == "__main__":
    main()

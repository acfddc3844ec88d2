"""The shared backend conformance suite.

Every :class:`SwitchBackend` must be observably interchangeable: same
traffic produces the same golden trace (checked against a solo
FilterModule oracle *and* across backends), the same routing errors with
the same all-violations shape, the same obs series names (modulo the
``backend`` label), and checkpoints that round-trip between any two
backends TH015-clean.
"""

from __future__ import annotations

import dataclasses
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.conformance import verify_checkpoint_roundtrip
from repro.core.operators import RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Policy,
    TableRef,
    intersection,
    min_of,
    predicate,
    round_robin,
)
from repro.engine.batch import (
    META_FILTER_EPOCH,
    META_FILTER_INPUT,
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    META_FILTER_SELECTED,
)
from repro.errors import (
    CapacityError,
    CellFault,
    CompilationError,
    ConfigurationError,
    RoutingError,
)
from repro.rmt.packet import META_TENANT, Packet
from repro.rmt.probe import ProbeCodec
from repro.serving import canonical_bytes
from repro.serving.backend import (
    BatchedBackend,
    ScalarBackend,
    TableWrite,
    build_backend,
)
from repro.serving.checkpoint import policy_from_dict
from repro.switch.filter_module import FilterModule
from repro.tenancy.manager import TenantManager, TenantSpec
from tests.core.test_fastpath_differential import drill_shaped
from tests.serving.test_migration import STATEFUL_4C, serve_trace

METRICS = ("cpu", "mem")
BACKENDS = (ScalarBackend, BatchedBackend)


def _policy_a() -> Policy:
    return Policy(min_of(TableRef(), "cpu"), name="least-cpu")


def _policy_b() -> Policy:
    table = TableRef()
    return Policy(
        min_of(intersection(predicate(table, "cpu", RelOp.LT, 80),
                            predicate(table, "mem", RelOp.GT, 2)), "mem"),
        name="eligible-min-mem",
    )


def _policy_c() -> Policy:
    """Stateful: every evaluation, masked or not, advances the pointer."""
    return Policy(round_robin(TableRef(), "cpu"), name="rr-cpu")


def _policy_f() -> Policy:
    """Stateful twice over: an LFSR, and a register fed back to input[1]
    that a mask must leave alone."""
    return drill_shaped(2, 1, "cpu")


#: ``input[1]`` names a physical line, so the feedback tenant is admitted
#: first: its one-column slice is then lines {0, 1}.
POLICIES = {"f": _policy_f, "a": _policy_a, "b": _policy_b, "c": _policy_c}

#: Candidate masks a data packet may carry (``None`` = the full table):
#: dense, sparse, empty, and one whose bits name absent and out-of-range ids.
MASKS = (None, 0b1011_0111, None, 1 << 3, 0, 0xF0F0_00E1)


def _make_backend(cls):
    manager = TenantManager(METRICS, PipelineParams(n=8), smbm_capacity=32)
    backend = cls(manager)
    for name, policy in POLICIES.items():
        backend.program_tenant(TenantSpec(name, policy(), smbm_quota=8))
    return backend


def _schedule():
    """A deterministic mixed schedule: probes (table writes on the wire)
    interleaved with filtering data packets — masked and unmasked, so the
    stateful tenants see both kinds interleaved — for every tenant."""
    names = list(POLICIES)
    steps = []
    for i in range(90):
        tenant = names[i % len(names)]
        if i % 7 == 0:
            steps.append(("probe", tenant, i % 8,
                          {"cpu": (i * 13) % 100, "mem": (i * 7) % 50}))
        else:
            steps.append(
                ("data", tenant, MASKS[(i // len(names)) % len(MASKS)]))
    return steps


#: Step kinds that put a probe on the wire; the second one also carries
#: ``META_FILTER_REQUEST``, which must not make it a row.
PROBES = ("probe", "probe+request")


def _traffic(codec: ProbeCodec, steps):
    """Fresh packet objects for one backend run (metadata is mutated).
    Besides probes and ``("data", tenant, mask)`` rows, a ``("quiet",
    tenant)`` step is a packet that requests nothing (``tenant=None``: not
    even a label)."""
    parser = codec.build_parser()
    packets = []
    for step in steps:
        tenant = step[1]
        if step[0] in PROBES:
            _, tenant, rid, metrics = step
            packet = parser.parse(codec.encode(rid, metrics))
            if step[0] == "probe+request":
                packet.metadata[META_FILTER_REQUEST] = 1
        elif step[0] == "quiet":
            packet = Packet()
        else:
            _, tenant, mask = step
            packet = Packet(metadata={META_FILTER_REQUEST: 1})
            if mask is not None:
                packet.metadata[META_FILTER_INPUT] = mask
        if tenant is not None:
            packet.metadata[META_TENANT] = tenant
        packets.append(packet)
    return packets


def _golden_traces(steps, policies=POLICIES):
    """Solo per-tenant FilterModules: the differential oracle both
    backends are held to."""
    modules = {name: FilterModule(8, METRICS, policy())
               for name, policy in policies.items()}
    traces = {name: [] for name in policies}
    for step in steps:
        if step[0] in PROBES:
            _, tenant, rid, metrics = step
            modules[tenant].update_resource(rid, metrics)
            continue
        if step[0] == "quiet":
            continue
        _, tenant, mask = step
        module = modules[tenant]
        traces[tenant].append(
            module.evaluate().value if mask is None
            else module.compiled.evaluate_restricted(module.smbm, mask).value
        )
    return traces


def _run(backend, steps):
    codec = ProbeCodec(METRICS)
    packets = _traffic(codec, steps)
    backend.process_batch(packets)
    traces = {}
    for step, packet in zip(steps, packets):
        if step[0] == "data":
            traces.setdefault(step[1], []).append(
                packet.metadata[META_FILTER_OUTPUT])
    return traces


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda c: c.name)
def test_backend_matches_solo_module_oracle(cls):
    steps = _schedule()
    assert _run(_make_backend(cls), steps) == _golden_traces(steps)


def test_backends_serve_identical_traces():
    steps = _schedule()
    scalar = _run(_make_backend(ScalarBackend), steps)
    batched = _run(_make_backend(BatchedBackend), steps)
    assert scalar == batched


_STEPS = st.one_of(
    st.tuples(st.just("data"), st.sampled_from(list(POLICIES)),
              st.sampled_from(MASKS) | st.integers(0, 0xFF)),
    st.tuples(st.sampled_from(PROBES), st.sampled_from(list(POLICIES)),
              st.integers(0, 7),
              st.fixed_dictionaries({"cpu": st.integers(0, 99),
                                     "mem": st.integers(0, 49)})),
    st.tuples(st.just("quiet"), st.sampled_from([*POLICIES, None])),
)


def _per_packet(backend, steps):
    """Serve ``steps`` as one batch: ``(output, selected, epoch)`` per
    packet, ``None`` where the packet was not served."""
    packets = _traffic(ProbeCodec(METRICS), steps)
    backend.process_batch(packets)
    return [tuple(p.metadata.get(key) for key in (
        META_FILTER_OUTPUT, META_FILTER_SELECTED, META_FILTER_EPOCH))
        for p in packets]


@settings(max_examples=60)
@given(st.lists(_STEPS, max_size=40))
def test_random_schedules_serve_alike_on_both_backends(steps):
    """Stateful (``c``), feedback (``f``) and stateless tenants under
    masked and unmasked rows, probes with and without later rows of their
    tenant, packets asking for nothing and probes that also ask for
    filtering: both backends serve the solo oracle per packet and end in
    the same state."""
    golden = {name: iter(outs) for name, outs in _golden_traces(steps).items()}
    want = []
    for step in steps:
        out = next(golden[step[1]]) if step[0] == "data" else None
        want.append((None, None, None) if out is None else (
            out, out.bit_length() - 1 if out.bit_count() == 1 else -1, 0))
    served = {}
    for cls in BACKENDS:
        backend = _make_backend(cls)
        served[cls] = (_per_packet(backend, steps),
                       canonical_bytes(backend.snapshot().payload()),
                       backend.switch.probes_processed)
    assert served[ScalarBackend][0] == served[BatchedBackend][0] == want
    assert served[ScalarBackend][1:] == served[BatchedBackend][1:]
    assert served[BatchedBackend][2] == sum(s[0] in PROBES for s in steps)


def _batches_by_tenant(registry) -> dict[str, float]:
    samples, _ = registry.collect()
    return {name: sum(s.value for s in samples
                      if s.name == "filter_batches_total"
                      and ("tenant", name) in s.labels)
            for name in POLICIES}


def test_a_probe_splits_only_its_own_tenants_run(registry, monkeypatch):
    """One ``evaluate_batch`` per run, and a run of tenant A ends only at
    a probe for A that finds A's rows pending; probes are decoded once
    each and nothing else is."""
    decoded = []
    decode = ProbeCodec.decode

    def counting_decode(codec, packet):
        decoded.append(packet)
        return decode(codec, packet)

    monkeypatch.setattr(ProbeCodec, "decode", counting_decode)
    row = {"cpu": 5, "mem": 5}
    steps = [
        ("data", "a", None), ("data", "b", None),
        ("probe", "b", 1, row),          # b pending: b's first run ends
        ("data", "a", 0b11),
        ("probe", "c", 2, row),          # c has nothing pending
        ("probe", "a", 3, row),          # a's two rows were one run
        ("data", "c", None),
        ("probe+request", "f", 4, row),  # f has nothing pending
        ("data", "f", None), ("data", "b", None), ("quiet", None),
        ("probe", "b", 5, row),          # b's second run ends
        ("probe", "b", 6, row),          # b has nothing pending
        ("data", "a", None), ("data", "b", 0b1), ("data", "c", None),
    ]
    backend = _make_backend(BatchedBackend)
    before = _batches_by_tenant(registry)
    packets = _traffic(ProbeCodec(METRICS), steps)
    backend.process_batch(packets)
    after = _batches_by_tenant(registry)
    # 1 + the tenant's own probes that arrived with its rows pending.
    assert {name: after[name] - before[name] for name in POLICIES} == {
        "a": 1 + 1, "b": 1 + 2, "c": 1 + 0, "f": 1 + 0}
    probes = [p for p, s in zip(packets, steps) if s[0] in PROBES]
    assert len(decoded) == len(probes) == 6
    assert all(got is want for got, want in zip(decoded, probes))

    decoded.clear()
    rows = [("data", name, mask) for mask in (None, 0b10)
            for name in ("a", "b", "c")]
    before = after
    backend.process_batch(_traffic(ProbeCodec(METRICS), rows))
    after = _batches_by_tenant(registry)
    assert {name: after[name] - before[name] for name in POLICIES} == {
        "a": 1, "b": 1, "c": 1, "f": 0}
    assert decoded == []


#: The dead-Cell schedule's tenants, each with a spare Cell column: one
#: heals around a dead Cell (and one more does under the sanitizer, whose
#: plan compare is where a batch-engine row meets the Cell), two serve
#: from a kernel no Cell fault reaches — one of them able to heal once a
#: self-test finds the Cell its traffic never touches.
FAULT_TENANTS = {"heal": {"self_healing": True},
                 "heal-san": {"self_healing": True, "sanitize": True},
                 "kern": {"codegen": True},
                 "kern-heal": {"codegen": True, "self_healing": True}}
#: And one whose sanitizer holds that kernel to the Cells it bypasses: with
#: one dead it must refuse every row, however the row arrives.
SANITIZED_KERNEL = {"kern-san": {"codegen": True, "sanitize": True}}


def _dead_cell_schedule():
    """Every tenant's first packets after the fault are *masked*, and a
    probe closes that run before an unmasked one arrives: whichever entry
    point carries a masked row has to heal (or run the kernel) itself, it
    cannot ride on an unmasked row having done so."""
    steps = [("probe", tenant, rid, {"cpu": 40 - 7 * rid, "mem": rid})
             for rid in range(5) for tenant in FAULT_TENANTS]
    for i, mask in enumerate((0b00111, 0b10011, None, 1 << 3, None, 0)):
        for tenant in FAULT_TENANTS:
            steps.append(("data", tenant, mask))
        if i in (1, 3):
            for tenant in FAULT_TENANTS:
                steps.append(("probe", tenant, i, {"cpu": i, "mem": i}))
    return steps


def _run_with_dead_cells(cls, steps, tenants=FAULT_TENANTS):
    """Serve ``steps`` with the first active Cell of every tenant dead
    from the start; returns (traces, tenant -> (module, dead position))."""
    manager = TenantManager(METRICS, PipelineParams(n=4 * len(tenants)),
                            smbm_capacity=8 * len(tenants))
    backend = cls(manager)
    killed = {}
    for name, flags in tenants.items():
        tenant = backend.program_tenant(
            TenantSpec(name, _policy_a(), smbm_quota=8, columns=2, **flags))
        dead = tenant.module.compiled.pipeline.active_cells()[0]
        tenant.module.inject_cell_kill(*dead)
        killed[name] = (tenant.module, dead)
    return _run(backend, steps), killed


def test_dead_cell_schedule_serves_alike_on_both_backends():
    steps = _dead_cell_schedule()
    scalar, killed = _run_with_dead_cells(ScalarBackend, steps)
    batched, killed_batched = _run_with_dead_cells(BatchedBackend, steps)
    golden = _golden_traces(steps, {name: _policy_a for name in FAULT_TENANTS})
    assert scalar == batched == golden
    # On the scalar backend the first row to meet the dead Cell was a
    # masked one, and it healed exactly as an unmasked row would have; on
    # the batched one the sanitized tenant's was a masked engine row.
    module, dead = killed_batched["heal-san"]
    assert module.routed_around == {dead}
    for name in ("heal", "heal-san"):
        module, dead = killed[name]
        assert module.routed_around == {dead}
    assert killed["kern"][0].routed_around == frozenset()
    # With the kernel armed the dead Cell is not on the serving path, so
    # traffic alone never finds it; the self-test does, and heals it.
    for served in (killed, killed_batched):
        module, dead = served["kern-heal"]
        assert module.routed_around == frozenset()
        assert module.self_test() == [
            {"stage": dead[0], "index": dead[1], "kind": "cell_dead"}]
        assert module.routed_around == {dead}
    # The sanitized kernel's masked rows meet the dead Cell in the
    # sanitizer's plan compare on both backends — per packet on one, per
    # engine row on the other, for a short column and a longer one.
    for rows in (2, 9):
        masked = ([("probe", "kern-san", rid, {"cpu": 9 - rid, "mem": rid})
                   for rid in range(3)]
                  + [("data", "kern-san", 0b011)] * rows)
        for cls in BACKENDS:
            with pytest.raises(CellFault):
                _run_with_dead_cells(cls, masked, SANITIZED_KERNEL)


def test_every_miss_is_timed_and_charged_masked_or_not(registry):
    """N rows of the row routine that miss the memo move
    ``filter_evaluations_total``, the ``filter_eval_ns`` count and
    ``filter_eval_cycles_total`` by N, N and N x latency, whichever entry
    point carried them and whether or not they carried a mask."""
    for policy, flags in ((_policy_a, {}), (_policy_a, {"codegen": True}),
                          (_policy_c, {}), (_policy_f, {})):
        module = FilterModule(8, METRICS, policy(), **flags)
        for rid in range(5):
            module.update_resource(rid, {"cpu": 40 - 7 * rid, "mem": rid})
        module.evaluate()  # fill the memo where there is one

        def moved():
            _, histograms = registry.collect()
            return (registry.value_of("filter_evaluations_total"),
                    sum(h.count for h in histograms
                        if h.name == "filter_eval_ns"),
                    registry.value_of("filter_eval_cycles_total"))

        before = moved()
        packets = _traffic(ProbeCodec(METRICS), [
            ("data", "t", mask) for mask in (0b111, 0b10011, 0, 0b1)])
        module.hook(packets[0])
        module.hook(packets[1])
        module.update_resource(0, {"cpu": 99, "mem": 0})
        module.select()  # unmasked miss: the write dropped any memo
        misses = 3
        if not module.compiled.stateless:
            # Every batch row of a stateful plan is a row-routine row.
            module.evaluate_batch(packets[2:])
            misses += 2
            labels = {"policy": module.policy.name}
            assert registry.value_of("filter_memo_hits_total", labels) == 0
            assert registry.value_of("filter_batch_path_rows_total",
                                     {**labels, "path": "fallback"}) == 2
        after = moved()
        assert [b - a for a, b in zip(before, after)] == [
            misses, misses, misses * module.latency_cycles], (policy, flags)


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda c: c.name)
def test_unknown_labels_aggregate_into_one_routing_error(cls):
    backend = _make_backend(cls)
    codec = ProbeCodec(METRICS)

    def probe(tenant):
        packet = codec.build_parser().parse(
            codec.encode(1, {"cpu": 5, "mem": 5})
        )
        if tenant is not None:
            packet.metadata[META_TENANT] = tenant
        return packet

    batch = [
        Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: "a"}),
        probe("a"),
        Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: "ghost"}),
        Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: "a"}),
        probe("nope"),
        Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: "zombie"}),
        Packet(metadata={META_FILTER_REQUEST: 1}),
        probe(None),
        Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: "ghost"}),
        Packet(metadata={}),  # touches no tenant: needs no label
    ]
    versions = {t.name: t.module.smbm.version for t in backend.manager}
    with pytest.raises(RoutingError) as excinfo:
        backend.process_batch(batch)
    # Requests and probes alike, every violation in the one error.
    assert excinfo.value.unknown == ("ghost", "nope", "zombie")
    assert excinfo.value.unlabelled == 2
    # All-or-nothing: the well-labelled probe ahead of the mislabelled
    # ones was not written and no request was served.
    assert {t.name: t.module.smbm.version
            for t in backend.manager} == versions
    assert not any(META_FILTER_OUTPUT in p.metadata for p in batch)


@pytest.mark.parametrize("hostile", ["abc", b"\x01", [1], 3.7, True],
                         ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("cls", BACKENDS, ids=lambda c: c.name)
def test_malformed_input_mask_is_one_configuration_error(cls, hostile):
    """A ``META_FILTER_INPUT`` that is not an int is refused where it
    enters, with the same error on both backends — never a bare builtin
    exception, never a float served truncated — and it refuses the batch
    whole: the probe ahead of the bad packet does not commit and no row
    ahead of it is served."""
    backend = _make_backend(cls)
    codec = ProbeCodec(METRICS)
    probe = codec.build_parser().parse(codec.encode(1, {"cpu": 5, "mem": 5}))
    probe.metadata[META_TENANT] = "a"
    requests = [
        Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: "a",
                         META_FILTER_INPUT: mask})
        for mask in [0b11] * 9 + [hostile]
    ]
    epochs = {t.name: t.plan_epoch for t in backend.manager}
    versions = {t.name: t.module.smbm.version for t in backend.manager}
    with pytest.raises(ConfigurationError) as excinfo:
        backend.process_batch([probe] + requests)
    assert str(excinfo.value) == (
        f"{META_FILTER_INPUT} must be an int id-bitmask, "
        f"got {type(hostile).__name__}"
    )
    assert not any(META_FILTER_OUTPUT in p.metadata for p in requests)
    assert {t.name: t.plan_epoch for t in backend.manager} == epochs
    assert {t.name: t.module.smbm.version
            for t in backend.manager} == versions


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda c: c.name)
def test_out_of_quota_probe_id_refuses_the_whole_batch(cls):
    """A wire probe naming a resource id at or past its tenant's quota
    fits the 16-bit field but no row of the table: the batch is refused
    with a CapacityError before the valid probe ahead of it commits or
    any row is served."""
    backend = _make_backend(cls)
    quota = backend.manager.get("a").module.smbm.capacity
    row = {"cpu": 5, "mem": 5}
    packets = _traffic(ProbeCodec(METRICS), [
        ("probe", "a", 1, row), ("data", "a", None), ("data", "b", 0b11),
        ("probe", "a", quota, row), ("data", "a", None),
    ])
    versions = {t.name: t.module.smbm.version for t in backend.manager}
    with pytest.raises(CapacityError, match=f"resource id {quota}"):
        backend.process_batch(packets)
    assert {t.name: t.module.smbm.version
            for t in backend.manager} == versions
    assert not any(META_FILTER_OUTPUT in p.metadata for p in packets)
    assert backend.switch.probes_processed == 0


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda c: c.name)
def test_a_dead_cell_met_while_serving_raises_alike(cls):
    """Past the up-front check, a serving-time error keeps its type on
    both backends (``ThanosSwitch.process_batch``'s contract): a dead Cell
    that an unmasked row meets without ``self_healing`` is a CellFault.
    (On the batched backend a masked row of this plan takes the batch
    engine, which runs no Cell; the dead-Cell schedule above covers those
    rows.)"""
    steps = ([("probe", "plain", rid, {"cpu": 9 - rid, "mem": rid})
              for rid in range(3)]
             + [("data", "plain", mask) for mask in (None, 0b011)])
    with pytest.raises(CellFault):
        _run_with_dead_cells(cls, steps, {"plain": {}})


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda c: c.name)
def test_write_batch_and_health(cls):
    backend = _make_backend(cls)
    applied = backend.write_batch([
        TableWrite("a", 1, {"cpu": 5, "mem": 9}),
        TableWrite("a", 2, {"cpu": 3, "mem": 1}),
        TableWrite("a", 1, None),
        TableWrite("b", 4, {"cpu": 50, "mem": 8}),
    ])
    assert applied == 4
    assert len(backend.manager.get("a").module.smbm) == 1
    health = backend.health()
    assert health["backend"] == cls.name
    assert health["healthy"] is True
    assert health["tenants"] == len(POLICIES)
    assert health["degraded_tenants"] == []


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda c: c.name)
def test_refused_write_loses_no_row(cls):
    """Nothing above ``SMBM.update`` validates a write's metrics, so it
    must refuse a bad row whole: the row it names keeps serving."""
    backend = _make_backend(cls)
    rows = [TableWrite("a", rid, {"cpu": 10 * rid + 5, "mem": rid})
            for rid in range(4)]
    backend.write_batch(rows)

    def served():
        packet = Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: "a"})
        backend.process_batch([packet])
        return packet.metadata[META_FILTER_OUTPUT]

    assert served() == 1 << 0  # least cpu
    smbm = backend.manager.get("a").module.smbm
    version = smbm.version
    for bad in ({"cpu": 1}, {"cpu": "low", "mem": 1}):
        with pytest.raises(ConfigurationError):
            backend.write_batch([TableWrite("a", 0, bad)])
    assert 0 in smbm and smbm.version == version
    assert served() == 1 << 0


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda c: c.name)
def test_lifecycle_returns_slice_to_pool(cls):
    backend = _make_backend(cls)
    free_before = len(backend.manager.free_columns)
    backend.unprogram_tenant("b")
    assert len(backend.manager.free_columns) == free_before + 1
    epoch = backend.hot_swap("a", _policy_b())
    assert epoch == 1
    assert backend.manager.get("a").module.policy.name == "eligible-min-mem"


def _diamonds_document() -> dict:
    """``union(n, n)`` nested 40 deep: 41 nodes, 2^40 root-to-leaf paths."""
    nodes = [{"type": "table", "input": None}]
    for below in range(40):
        nodes.append({"type": "binary", "op": "union", "left": below,
                      "right": below, "choice": None})
    return {"name": "diamonds", "root": 40, "nodes": nodes}


def _chain_document() -> dict:
    """A unary chain twice as deep as the interpreter's recursion limit."""
    nodes = [{"type": "table", "input": None}]
    for below in range(2000):
        nodes.append({"type": "unary", "op": "min", "k": 1, "attr": "cpu",
                      "rel": None, "val": None, "child": below})
    return {"name": "chain", "root": 2000, "nodes": nodes}


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda c: c.name)
def test_deeply_shared_policy_document_is_refused_at_once(cls):
    """Admission and hot-swap must refuse a document taller than the
    pipeline per node (TH009), not walk the diamonds per path while
    holding the controller's admission lock — and not recurse into the
    chain: the refusal is typed, and the live plan keeps serving."""
    backend = _make_backend(cls)
    backend.unprogram_tenant("c")  # room to admit, were the policy to fit
    backend.write_batch([TableWrite("a", rid, {"cpu": 9 - rid, "mem": rid})
                         for rid in range(4)])
    module = backend.manager.get("a").module

    def served():
        packet = Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: "a"})
        backend.process_batch([packet])
        return packet.metadata[META_FILTER_OUTPUT]

    live_policy, live_output = module.policy, served()
    started = time.perf_counter()
    for document in (_diamonds_document(), _chain_document()):
        policy = policy_from_dict(document)
        for refused in (
            lambda: backend.program_tenant(
                TenantSpec("d", policy, smbm_quota=8)),
            lambda: backend.hot_swap("a", policy),
            lambda: backend.hot_swap("a", policy,
                                     allow_semantic_change=False),
        ):
            with pytest.raises(CompilationError) as exc_info:
                refused()
            assert exc_info.value.rule == "TH009"
    assert time.perf_counter() - started < 1.0
    assert backend.manager.get("a").plan_epoch == 0
    assert module.policy is live_policy and served() == live_output


def test_obs_series_names_identical_across_backends():
    def series_names(cls):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            backend = _make_backend(cls)
            backend.process_batch(_traffic(ProbeCodec(METRICS), _schedule()))
            backend.write_batch([TableWrite("a", 1, {"cpu": 1, "mem": 2})])
            ckpt = backend.snapshot_tenant("a")
            backend.unprogram_tenant("a")
            backend.restore_tenant(ckpt)
            snap = obs.snapshot(registry)
        names = set()
        for kind in snap.values():
            for series in kind:
                names.add(series.split("{")[0])
        return names

    assert series_names(ScalarBackend) == series_names(BatchedBackend)


@pytest.mark.parametrize("src_cls", BACKENDS, ids=lambda c: c.name)
@pytest.mark.parametrize("dst_cls", BACKENDS, ids=lambda c: c.name)
def test_checkpoint_roundtrip_is_th015_clean(src_cls, dst_cls):
    source = _make_backend(src_cls)
    source.write_batch([
        TableWrite("a", i, {"cpu": i * 11 % 60, "mem": i}) for i in range(6)
    ])
    source.hot_swap("a", _policy_b())  # epoch lineage must survive
    dest = dst_cls(TenantManager(METRICS, smbm_capacity=16))
    dest.restore_tenant(source.snapshot_tenant("a"))
    report = verify_checkpoint_roundtrip(source, dest, "a")
    assert report.clean, report.describe()
    assert dest.manager.get("a").plan_epoch == 1


@pytest.mark.parametrize("policy", [_policy_b, *STATEFUL_4C])
def test_restored_tenant_continues_the_source_trace(policy):
    """The golden twin at trace level: a restored copy serves the packets
    the source would have served next."""
    source = ScalarBackend(TenantManager(METRICS, smbm_capacity=16))
    source.program_tenant(TenantSpec("t", policy(), smbm_quota=8))
    source.write_batch([
        TableWrite("t", i, {"cpu": i + 1, "mem": i + 3}) for i in range(5)
    ])
    serve_trace(source, count=3)
    dest = BatchedBackend(TenantManager(METRICS, smbm_capacity=16))
    dest.restore_tenant(source.snapshot_tenant("t"))
    assert verify_checkpoint_roundtrip(source, dest, "t").clean
    assert serve_trace(dest, count=5) == serve_trace(source, count=5)


def test_th015_flags_post_restore_divergence():
    source = _make_backend(ScalarBackend)
    source.write_batch([TableWrite("a", 1, {"cpu": 4, "mem": 2})])
    dest = BatchedBackend(TenantManager(METRICS, smbm_capacity=16))
    dest.restore_tenant(source.snapshot_tenant("a"))
    # Perturb the restored table behind the checkpoint's back.
    dest.manager.get("a").module.update_resource(1, {"cpu": 99, "mem": 2})
    report = verify_checkpoint_roundtrip(source, dest, "a")
    assert not report.clean
    assert {f.rule for f in report.findings} == {"TH015"}


def test_failed_restore_leaves_no_half_tenant():
    source = _make_backend(ScalarBackend)
    ckpt = source.snapshot_tenant("a")
    broken = dataclasses.replace(ckpt, smbm_state={"capacity": 99})
    dest = ScalarBackend(TenantManager(METRICS, smbm_capacity=16))
    with pytest.raises(Exception):
        dest.restore_tenant(broken)
    assert "a" not in dest.manager
    assert len(dest.manager.free_columns) == 2


def test_build_backend_factory():
    manager = TenantManager(METRICS, smbm_capacity=16)
    assert isinstance(build_backend("scalar", manager), ScalarBackend)
    assert isinstance(
        build_backend("batched", TenantManager(METRICS, smbm_capacity=16)),
        BatchedBackend,
    )
    with pytest.raises(ConfigurationError):
        build_backend("quantum", manager)

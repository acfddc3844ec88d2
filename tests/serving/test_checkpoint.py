"""Checkpoint/restore: bit-identical round trips and hostile payloads.

Property acceptance: ``restore(snapshot(smbm))`` reproduces the stored
words, the FIFO enqueue order, *and* the version counter exactly — under
arbitrary write histories, under :class:`ReplicatedSMBM` (per-replica,
divergence preserved), and with an :class:`ECCStore` attached (check
words rebuild to the source's).  A checkpoint's file is the write-ahead
log: it round-trips through a ``checkpoint`` record bit-identically, and
a payload that does not decode is rejected with
:class:`~repro.errors.CheckpointError`, never half-restored.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import RelOp
from repro.core.policy import (
    Conditional,
    Policy,
    TableRef,
    intersection,
    min_of,
    predicate,
    random_pick,
    round_robin,
    union,
)
from repro.core.smbm import SMBM
from repro.errors import CapacityError, CheckpointError, ConfigurationError
from repro.faults.scrub import ECCStore
from repro.serving.backend import ScalarBackend, TableWrite
from repro.serving.checkpoint import (
    SwitchCheckpoint,
    TenantCheckpoint,
    canonical_bytes,
    policy_from_dict,
    policy_to_dict,
)
from repro.serving.recovery import recover
from repro.serving.wal import WriteAheadLog, read_wal
from repro.switch.filter_module import FilterModule
from repro.switch.replication import ReplicatedSMBM
from repro.tenancy.manager import TenantManager, TenantSpec

METRICS = ("cpu", "mem")


def _ops_strategy():
    """A write history: interleaved adds, updates and deletes."""
    return st.lists(
        st.tuples(
            st.sampled_from(("add", "update", "delete")),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=1000),
        ),
        max_size=40,
    )


def _apply(smbm: SMBM, ops) -> None:
    for kind, rid, val in ops:
        metrics = {"cpu": val, "mem": val % 97}
        try:
            if kind == "add":
                smbm.add(rid, metrics)
            elif kind == "update":
                smbm.update(rid, metrics)
            else:
                smbm.delete(rid)
        except Exception:
            # Invalid transitions (add of a present id, update/delete of
            # an absent one) are part of a realistic history: skipped ops
            # still leave a valid table to checkpoint.
            pass


# -- SMBM state round trip -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(ops=_ops_strategy())
def test_restore_of_snapshot_is_bit_identical(ops):
    source = SMBM(8, METRICS)
    _apply(source, ops)
    state = source.export_state()
    target = SMBM(8, METRICS)
    target.restore_state(state)
    assert target.export_state() == state
    assert target.version == source.version
    assert list(target.snapshot()) == list(source.snapshot())


@settings(max_examples=40, deadline=None)
@given(ops=_ops_strategy(), pre=_ops_strategy())
def test_restore_overwrites_any_prior_contents(ops, pre):
    source = SMBM(8, METRICS)
    _apply(source, ops)
    target = SMBM(8, METRICS)
    _apply(target, pre)  # dirty the target first
    target.restore_state(source.export_state())
    assert target.export_state() == source.export_state()


@settings(max_examples=40, deadline=None)
@given(ops=_ops_strategy())
def test_ecc_state_rebuilds_across_restore(ops):
    source = SMBM(8, METRICS)
    source_ecc = ECCStore(source)
    _apply(source, ops)
    target = SMBM(8, METRICS)
    target_ecc = ECCStore(target)
    target.restore_state(source.export_state())
    assert target_ecc.snapshot() == source_ecc.snapshot()


def test_restore_preserves_fifo_tie_order():
    # Two rows with equal metric values: rank order is decided by the
    # FIFO enqueue sequence, which must survive the round trip.
    source = SMBM(4, METRICS)
    source.add(2, {"cpu": 5, "mem": 5})
    source.add(0, {"cpu": 5, "mem": 5})
    source.add(1, {"cpu": 5, "mem": 5})
    target = SMBM(4, METRICS)
    target.restore_state(source.export_state())
    assert (target.rank_of(2, "cpu"), target.rank_of(0, "cpu"),
            target.rank_of(1, "cpu")) == (
        source.rank_of(2, "cpu"), source.rank_of(0, "cpu"),
        source.rank_of(1, "cpu"))


def test_restore_rejects_schema_and_capacity_mismatch():
    source = SMBM(4, METRICS)
    source.add(1, {"cpu": 1, "mem": 2})
    state = source.export_state()
    with pytest.raises(ConfigurationError):
        SMBM(4, ("cpu",)).restore_state(state)
    with pytest.raises((ConfigurationError, CapacityError)):
        SMBM(2, METRICS).restore_state(
            {**state, "capacity": 2, "rows": {i: {"cpu": 1, "mem": 2}
                                              for i in range(3)},
             "seq": {i: i for i in range(3)}}
        )


def test_refused_restore_leaves_the_table_as_it_was():
    """Every row passes the write guard before anything is cleared: a row
    id past the capacity, a negative metric and one past the stored word
    are each refused, and the live table keeps its rows, FIFO order and
    version."""
    target = SMBM(4, METRICS)
    target.add(3, {"cpu": 9, "mem": 9})
    target.add(0, {"cpu": 7, "mem": 7})
    before = target.export_state()
    good = {"cpu": 1, "mem": 2}
    for rows in ({1: good, 9: good},
                 {1: good, 2: {"cpu": -4, "mem": 2}},
                 {1: good, 2: {"cpu": 2**70, "mem": 2}}):
        state = {**before, "rows": rows, "seq": {rid: rid for rid in rows}}
        with pytest.raises((CapacityError, ConfigurationError)):
            target.restore_state(state)
        assert target.export_state() == before


@pytest.mark.parametrize("seq, next_seq", [
    ({1: 5, 2: 5}, 0),       # a tie, both past the next sequence number
    ({1: 5, 2: 5}, 6),       # a tie
    ({1: -1, 2: 0}, 3),      # negative
    ({1: 0, 2: 3}, 3),       # not issued yet
    ({1: 0, 2: 1}, 2**64),   # past the key's sequence field
])
def test_restore_refuses_a_fifo_order_no_table_could_hold(seq, next_seq):
    """A later add must enqueue behind every restored row; a tie, a
    negative or a not-yet-issued sequence number would let it sort ahead
    (``min`` then picked the newest of equal values)."""
    target = SMBM(4, METRICS)
    target.add(3, {"cpu": 9, "mem": 9})
    before = target.export_state()
    rows = {1: {"cpu": 3, "mem": 3}, 2: {"cpu": 3, "mem": 3}}
    with pytest.raises(ConfigurationError, match="FIFO sequence"):
        target.restore_state({**before, "rows": rows, "seq": seq,
                              "next_seq": next_seq})
    assert target.export_state() == before
    target.restore_state({**before, "rows": rows, "seq": {1: 0, 2: 1},
                          "next_seq": 2})
    target.add(0, {"cpu": 3, "mem": 3})
    assert target.attr_list("cpu") == [(3, 1), (3, 2), (3, 0)]


def test_refused_restore_table_touches_neither_caches_nor_rows(registry):
    module = FilterModule(4, METRICS, Policy(min_of(TableRef(), "cpu")))
    module.update_resource(0, {"cpu": 5, "mem": 5})
    before = module.smbm.export_state()
    resets = registry.value_of("serving_cache_resets_total")
    other = SMBM(4, METRICS)
    other.add(2, {"cpu": 1, "mem": 1})
    with pytest.raises(ConfigurationError, match="plan_epoch"):
        module.restore_table(other.export_state(), plan_epoch=-1)
    assert module.smbm.export_state() == before
    assert registry.value_of("serving_cache_resets_total") == resets


# -- ReplicatedSMBM --------------------------------------------------------------------


def test_replicated_roundtrip_preserves_every_replica():
    rep = ReplicatedSMBM(3, 4, METRICS)
    rep.issue_update(0, 1, {"cpu": 10, "mem": 1})
    rep.commit_cycle()
    rep.issue_update(1, 2, {"cpu": 20, "mem": 2})
    rep.commit_cycle()
    # Manufacture divergence directly on one replica: the checkpoint must
    # reproduce the replicas as they are, not as they should be.
    rep.replica(2).update(1, {"cpu": 99, "mem": 1})
    state = rep.export_state()
    target = ReplicatedSMBM(3, 4, METRICS)
    target.restore_state(state)
    assert target.export_state() == state
    for i in range(3):
        assert (target.replica(i).export_state()
                == rep.replica(i).export_state())


def test_replicated_restore_drops_a_retired_counter_key():
    """Older exports carried a second counter beside ``cycles``; restore
    accepts such a payload and drops the key."""
    rep = ReplicatedSMBM(2, 4, METRICS)
    rep.issue_update(0, 1, {"cpu": 10, "mem": 1})
    rep.commit_cycle()
    state = rep.export_state()
    assert sorted(state) == ["cycles", "pipelines", "replicas"]
    target = ReplicatedSMBM(2, 4, METRICS)
    target.restore_state({**state, "retired_counter": 3})
    assert target.export_state() == state


def test_replicated_restore_rejects_wrong_replica_count():
    rep = ReplicatedSMBM(2, 4, METRICS)
    with pytest.raises(ConfigurationError):
        ReplicatedSMBM(3, 4, METRICS).restore_state(rep.export_state())


# -- policy document round trip --------------------------------------------------------


def _feedback_policy():
    table = TableRef()
    seen = union(random_pick(table, k=2),
                 predicate(TableRef(input_index=1), "cpu", RelOp.GE, 3))
    return Policy(min_of(seen, "cpu"), name="extra-input", feedback={1: seen})


def _policies():
    table = TableRef()
    shared = predicate(table, "cpu", RelOp.LT, 70)
    return [
        Policy(table, name="pass-through"),
        Policy(min_of(shared, "mem", k=2), name="k-min"),
        Policy(intersection(shared, min_of(shared, "mem")), name="fanout"),
        Policy(Conditional(random_pick(shared), random_pick(table)),
               name="conditional"),
        Policy(round_robin(table, "cpu"), name="stateful"),
        _feedback_policy(),
    ]


@pytest.mark.parametrize("policy", _policies(), ids=lambda p: p.name)
def test_policy_document_roundtrip(policy):
    doc = policy_to_dict(policy)
    rebuilt = policy_from_dict(doc)
    assert policy_to_dict(rebuilt) == doc
    assert rebuilt.name == policy.name


def test_policy_roundtrip_preserves_shared_fanout():
    table = TableRef()
    shared = predicate(table, "cpu", RelOp.LT, 70)
    policy = Policy(intersection(shared, min_of(shared, "mem")))
    rebuilt = policy_from_dict(policy_to_dict(policy))
    root = rebuilt.root
    assert root.left is root.right.child  # one node object, not a clone


def test_policy_roundtrip_keeps_the_feedback_binding_shared():
    doc = policy_to_dict(_feedback_policy())
    assert doc["feedback"] == {"1": doc["root"] - 1}
    rebuilt = policy_from_dict(doc)
    # The bound node is the root's own operand, not a clone beside it.
    assert rebuilt.feedback == {1: rebuilt.root.child}
    assert rebuilt.root.child.right.child.input_index == 1


def test_policy_document_without_feedback_keeps_its_bytes():
    """Every document written before the field existed: no key, an empty
    binding, and the same bytes on the way back out."""
    policy = Policy(min_of(TableRef(), "cpu"), name="old")
    doc = policy_to_dict(policy)
    assert "feedback" not in doc
    assert policy_from_dict(doc).feedback == {}
    assert canonical_bytes(policy_to_dict(policy_from_dict(doc))) \
        == canonical_bytes(doc)


def test_policy_document_rejects_garbage():
    with pytest.raises(CheckpointError):
        policy_from_dict({"name": "x"})
    with pytest.raises(CheckpointError):
        policy_from_dict({"name": "x", "root": 0,
                          "nodes": [{"type": "alien"}]})
    with pytest.raises(CheckpointError):
        # Forward reference: node 0 referring to node 1.
        policy_from_dict({"name": "x", "root": 0, "nodes": [
            {"type": "binary", "op": "union", "left": 1, "right": 1,
             "choice": None},
            {"type": "table", "input": None},
        ]})
    nodes = policy_to_dict(_feedback_policy())["nodes"]
    for feedback in ({"1": 99}, {"x": 0}, {"2": 0}, [[1, 0]], {}):
        # A binding to no node, on no line, on a line nobody reads, of the
        # wrong shape — and an input[1] left unbound.
        with pytest.raises(CheckpointError):
            policy_from_dict({"name": "x", "root": len(nodes) - 1,
                              "nodes": nodes, "feedback": feedback})


# -- the checkpoint record ------------------------------------------------------------


def test_canonical_bytes_normalizes_int_and_string_keys():
    # JSON stringifies int dict keys; the canonical form must encode the
    # writer's int-keyed payload and the reader's string-keyed round trip
    # to the same bytes.
    int_keyed = {"rows": {1: "x", 10: "y", 2: "z"}}
    str_keyed = json.loads(json.dumps(int_keyed))
    assert canonical_bytes(int_keyed) == canonical_bytes(str_keyed)


def _backend() -> ScalarBackend:
    return ScalarBackend(TenantManager(METRICS, smbm_capacity=16))


def _switch_checkpoint():
    backend = _backend()
    backend.program_tenant(TenantSpec(
        name="t", policy=Policy(min_of(TableRef(), "cpu"), name="ll"),
        smbm_quota=8,
    ))
    backend.write_batch([
        TableWrite("t", i, {"cpu": i * 3, "mem": i}) for i in range(5)
    ])
    return backend, backend.snapshot()


def _through_the_log(path, checkpoint) -> SwitchCheckpoint:
    """Log ``checkpoint`` as a record and decode it back from the file."""
    with WriteAheadLog(path) as wal:
        wal.append("checkpoint", "__ctl__",
                   {**checkpoint.payload(), "hwm": {}})
    (record,) = read_wal(path).records
    return SwitchCheckpoint.from_payload(record.args)


def test_file_roundtrip_is_bit_identical(tmp_path):
    backend, checkpoint = _switch_checkpoint()
    loaded = _through_the_log(tmp_path / "ops.wal", checkpoint)
    assert loaded == checkpoint
    assert (loaded.tenants[0].smbm_state
            == backend.manager.get("t").module.smbm.export_state())


def test_file_roundtrip_survives_two_digit_row_ids(tmp_path):
    """Int row ids sort numerically in a live snapshot but their JSON
    string forms sort lexicographically ("10" < "2"): a checkpoint
    decoded from the log must still hold int row ids and encode to the
    live snapshot's canonical bytes."""
    backend = _backend()
    backend.program_tenant(TenantSpec(
        name="t", policy=Policy(min_of(TableRef(), "cpu"), name="ll"),
        smbm_quota=16,
    ))
    backend.write_batch([
        TableWrite("t", rid, {"cpu": rid, "mem": 1})
        for rid in (12, 10, 2, 1, 15)
    ])
    loaded = _through_the_log(tmp_path / "ops.wal", backend.snapshot())
    assert (loaded.tenants[0].smbm_state
            == backend.manager.get("t").module.smbm.export_state())
    assert (canonical_bytes(loaded.payload())
            == canonical_bytes(backend.snapshot().payload()))


def test_unit_state_is_one_payload_key_written_only_when_stateful(tmp_path):
    """The ``units`` key carries the LFSR, round-robin and feedback
    registers through the log; a stateless tenant's payload has no such
    key, and a payload without it restores the units from the seed."""
    fed = predicate(TableRef(), "cpu", RelOp.LT, 6)
    policies = {
        "lt": Policy(min_of(TableRef(), "cpu"), name="lt"),
        "rr": Policy(round_robin(TableRef(), "cpu"), name="rr"),
        "random": Policy(random_pick(TableRef(), k=2), name="random"),
        "fb": Policy(intersection(fed, TableRef(input_index=1)), name="fb",
                     feedback={1: fed}),
    }
    for name, policy in policies.items():
        backend = _backend()
        backend.program_tenant(TenantSpec(name, policy, smbm_quota=8,
                                          columns=2))
        backend.write_batch([TableWrite(name, rid, {"cpu": rid, "mem": 1})
                             for rid in range(6)])
        live = backend.manager.get(name).module
        for _ in range(4):
            live.evaluate()
        (ckpt,) = _through_the_log(tmp_path / f"{name}.wal",
                                   backend.snapshot()).tenants
        assert canonical_bytes(ckpt.payload()) == \
            canonical_bytes(backend.snapshot_tenant(name).payload())
        if name == "lt":
            assert "units" not in ckpt.payload() and ckpt.units is None
            continue
        assert ckpt.units == live.export_units()
        if name == "fb":
            assert ckpt.units["feedback"]  # the register, after 4 packets
        old = TenantCheckpoint.from_payload(
            {k: v for k, v in ckpt.payload().items() if k != "units"})
        restored, from_seed = (_backend().restore_tenant(c).module
                               for c in (ckpt, old))
        seeded = FilterModule(8, METRICS, policy)
        seeded.restore_table(live.smbm.export_state())
        for _ in range(6):
            assert restored.evaluate() == live.evaluate()
            assert from_seed.evaluate() == seeded.evaluate()


def test_corrupted_payload_rejected(tmp_path):
    """A payload that does not decode is refused whole, and recovery
    passes over its record to the newest checkpoint that does."""
    _, checkpoint = _switch_checkpoint()
    payload = json.loads(json.dumps(checkpoint.payload()))
    for corrupt in (
        lambda p: p["tenants"][0].pop("plan_epoch"),
        lambda p: p["tenants"][0]["smbm_state"].update(rows=[1, 2]),
        lambda p: p["tenants"][0]["smbm_state"]["seq"].update(x=0),
        lambda p: p["tenants"][0]["policy"].update(root=99),
        lambda p: p.update(params=None),
    ):
        bad = copy.deepcopy(payload)
        corrupt(bad)
        with pytest.raises(CheckpointError):
            SwitchCheckpoint.from_payload(bad)

    path = tmp_path / "ops.wal"
    with WriteAheadLog(path) as wal:
        good = wal.append("checkpoint", "__ctl__", {**payload, "hwm": {}})
        wal.append("checkpoint", "__ctl__", {**bad, "hwm": {}})
    report = recover(path, lambda _ckpt: _backend())
    assert report.checkpoint_op_id == good.op_id
    assert (canonical_bytes(report.backend.snapshot().payload())
            == canonical_bytes(checkpoint.payload()))

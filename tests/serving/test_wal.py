"""The write-ahead log: framing, round trip, and torn-write totality.

The fuzz test is the heart of the crash-consistency story: a log
truncated or bit-flipped at *every possible offset* must always read
back as a valid prefix — recovery never raises, never trusts a corrupt
record, and counts each torn tail exactly once.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import obs
from repro.core.operators import RelOp
from repro.core.policy import Policy, TableRef, min_of, predicate
from repro.errors import CheckpointError, ConfigurationError, WalError
from repro.serving.backend import ScalarBackend
from repro.serving.checkpoint import (
    load_checkpoint,
    policy_to_dict,
    save_checkpoint,
    spec_from_dict,
    spec_to_dict,
)
from repro.serving.wal import (
    CONTROL_OP_KINDS,
    MARKER_KINDS,
    OP_KINDS,
    WAL_MAGIC,
    WalRecord,
    WriteAheadLog,
    read_wal,
)
from repro.tenancy.manager import TenantManager, TenantSpec


METRICS = ("cpu", "mem")


def _policy(kind: str = "min") -> Policy:
    table = TableRef()
    if kind == "min":
        return Policy(min_of(table, "cpu"), name="least-loaded")
    return Policy(predicate(table, "cpu", RelOp.LT, 50), name="under")


def _write_log(path, n: int = 5) -> list[WalRecord]:
    with WriteAheadLog(path) as wal:
        records = [
            wal.append(
                "update_resource", f"t{i % 2}",
                {"resource_id": i, "metrics": {"cpu": i * 3, "mem": i}},
            )
            for i in range(n)
        ]
    return records


def test_kind_registry_is_closed():
    assert OP_KINDS == CONTROL_OP_KINDS + MARKER_KINDS
    assert len(set(OP_KINDS)) == len(OP_KINDS)


def test_append_read_roundtrip(tmp_path):
    path = tmp_path / "ops.wal"
    written = _write_log(path, 7)
    result = read_wal(path)
    assert result.header_ok and result.torn == 0
    assert result.records == tuple(written)
    assert [r.op_id for r in result.records] == list(range(7))
    assert result.valid_bytes == path.stat().st_size


def test_append_rejects_unknown_kind_and_closed_log(tmp_path):
    wal = WriteAheadLog(tmp_path / "ops.wal")
    with pytest.raises(WalError):
        wal.append("frobnicate", "t")
    wal.close()
    with pytest.raises(WalError):
        wal.append("add_tenant", "t")


def test_sync_mode_is_validated(tmp_path):
    with pytest.raises(ConfigurationError):
        WriteAheadLog(tmp_path / "ops.wal", sync="lazily")


def test_reopen_continues_op_ids_and_truncates_torn_tail(tmp_path):
    path = tmp_path / "ops.wal"
    _write_log(path, 3)
    # Tear the tail: append garbage half-frame bytes.
    with open(path, "ab") as fh:
        fh.write(b"\x00\x00\x00\x30half-a-frame")
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        with WriteAheadLog(path) as wal:
            assert wal.next_op_id == 3  # continues after the trusted prefix
            wal.append("remove_tenant", "t0")
        assert registry.value_of("wal_torn_records_total") == 1
    result = read_wal(path)
    assert result.torn == 0
    assert [r.op_id for r in result.records] == [0, 1, 2, 3]
    assert result.records[-1].kind == "remove_tenant"


def test_missing_file_and_foreign_header_read_as_empty(tmp_path):
    empty = read_wal(tmp_path / "never-written.wal")
    assert empty.records == () and empty.torn == 0 and not empty.header_ok
    foreign = tmp_path / "foreign.bin"
    foreign.write_bytes(b"not a wal at all, definitely longer than magic")
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        result = read_wal(foreign)
        assert registry.value_of("wal_torn_records_total") == 1
    assert result.records == () and result.torn == 1 and not result.header_ok


def _not_our_log(kind: str, path) -> bytes:
    """A non-empty file that does not start with this build's magic."""
    if kind == "foreign":
        blob = b"# notes.txt\nnot a wal at all, definitely longer than magic\n"
    else:
        _write_log(path, 3)  # three acknowledged ops
        blob = path.read_bytes()
        if kind == "old_magic":
            blob = WAL_MAGIC.replace(b"v2", b"v1") + blob[len(WAL_MAGIC):]
        else:  # one flipped header byte
            blob = bytes([blob[0] ^ 0x01]) + blob[1:]
    path.write_bytes(blob)
    return blob


@pytest.mark.parametrize("kind", ["foreign", "old_magic", "flipped_header"])
def test_open_refuses_to_overwrite_a_file_it_cannot_read(tmp_path, kind):
    """Regression: these used to be opened "wb" and silently replaced by
    a fresh header — for the old-magic and flipped-byte logs that threw
    away every acknowledged op in them."""
    path = tmp_path / "ops.wal"
    blob = _not_our_log(kind, path)
    with pytest.raises(WalError) as raised:
        WriteAheadLog(path)
    assert raised.value.path == str(path)
    assert path.read_bytes() == blob


def test_open_initialises_a_missing_or_empty_file(tmp_path):
    for path in (tmp_path / "missing.wal", tmp_path / "empty.wal"):
        if path.name == "empty.wal":
            path.write_bytes(b"")
        with WriteAheadLog(path) as wal:
            assert wal.next_op_id == 0
            wal.append("remove_tenant", "t")
        assert path.read_bytes().startswith(WAL_MAGIC)
        assert len(read_wal(path).records) == 1


def _spec_fields(spec: TenantSpec) -> dict:
    """Every dataclass field by name; the policy as its document (node
    ids are globally allocated, so policies compare by serialized form)."""
    out = {f.name: getattr(spec, f.name)
           for f in dataclasses.fields(TenantSpec)}
    out["policy"] = policy_to_dict(spec.policy)
    return out


def test_every_spec_field_survives_wal_and_checkpoint_roundtrip(tmp_path):
    """Walks ``dataclasses.fields(TenantSpec)``, so a field added to the
    spec cannot be dropped by either persisted form: the WAL's
    ``add_tenant`` document, or snapshot -> save/load -> restore."""
    spec = TenantSpec(name="alpha", policy=_policy("pred"), smbm_quota=6,
                      columns=2, cell_quota=5, lfsr_seed=11,
                      self_healing=True, sanitize=True, codegen=True)
    for field in dataclasses.fields(TenantSpec):
        if field.default is not dataclasses.MISSING:
            assert getattr(spec, field.name) != field.default, (
                f"give TenantSpec.{field.name} a non-default value here")

    # A document written before a field was retired (``memoize`` until
    # PR 17) still carries its key; both persisted forms must keep reading.
    for era, extra in (("now", {}), ("old", {"memoize": False})):
        wal_path = tmp_path / f"{era}.wal"
        with WriteAheadLog(wal_path) as wal:
            wal.append("add_tenant", spec.name,
                       {"spec": {**spec_to_dict(spec), **extra}})
        (record,) = read_wal(wal_path).records
        assert (_spec_fields(spec_from_dict(record.args["spec"]))
                == _spec_fields(spec))

        source = ScalarBackend(TenantManager(METRICS, smbm_capacity=16))
        source.program_tenant(spec)
        saved = save_checkpoint(tmp_path / f"{era}.json",
                                source.snapshot())
        dest = ScalarBackend(TenantManager(METRICS, smbm_capacity=16))
        (ckpt,) = load_checkpoint(saved).tenants
        ckpt = dataclasses.replace(ckpt, spec={**ckpt.spec, **extra})
        assert _spec_fields(dest.restore_tenant(ckpt).spec) == _spec_fields(
            spec)

    with pytest.raises(CheckpointError):
        spec_from_dict({"name": "broken"})


def test_obs_series_count_appends_and_bytes(tmp_path):
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        _write_log(tmp_path / "ops.wal", 4)
        assert registry.value_of("wal_appends_total") == 4
        assert (registry.value_of("wal_bytes_written_total")
                == (tmp_path / "ops.wal").stat().st_size - len(WAL_MAGIC))


def test_fsync_mode_counts_barriers(tmp_path):
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        with WriteAheadLog(tmp_path / "ops.wal", sync="fsync") as wal:
            wal.append("remove_tenant", "t")
            wal.append("cutover", "t")
        assert registry.value_of("wal_fsync_total") >= 2


# -- group commit: one frame per drained burst -----------------------------------------


def test_group_append_roundtrip_and_frame_accounting(tmp_path):
    path = tmp_path / "ops.wal"
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        with WriteAheadLog(path) as wal:
            first = wal.append("add_tenant", "a", {"n": 1})
            group = wal.append_group([
                ("update_resource", "a",
                 {"resource_id": i, "metrics": {"cpu": i}})
                for i in range(4)
            ])
            last = wal.append("remove_tenant", "a")
        assert registry.value_of("wal_appends_total") == 6
        # Three frames of 1, 4 and 1 records.
        assert registry.value_of("wal_frames_total") == 3
    assert [r.op_id for r in group] == [1, 2, 3, 4]
    result = read_wal(path)
    assert result.torn == 0
    assert result.records == (first, *group, last)
    assert [r.args.get("resource_id") for r in group] == [0, 1, 2, 3]


def test_single_entry_group_is_byte_identical_to_plain_append(tmp_path):
    """``append`` is ``append_group([one])``: the same group frame, and
    arming a (never-firing) crash hook does not change a byte of it."""
    entry = ("hot_swap", "a", {"x": 1})
    plain, grouped, hooked = (tmp_path / name for name in
                              ("plain.wal", "group.wal", "hooked.wal"))
    with WriteAheadLog(plain) as wal:
        wal.append(*entry)
    with WriteAheadLog(grouped) as wal:
        wal.append_group([entry])
    with WriteAheadLog(hooked, crash_hook=lambda site, record: None) as wal:
        wal.append(*entry)
    assert plain.read_bytes() == grouped.read_bytes() == hooked.read_bytes()
    blob = plain.read_bytes()[len(WAL_MAGIC):]
    assert json.loads(blob[4:-8]) == {
        "grp": 0, "tenant": "a", "kinds": ["hot_swap"], "args": [{"x": 1}]}


def test_mixed_tenant_group_is_rejected_and_leaves_the_log_untouched(
        tmp_path):
    path = tmp_path / "ops.wal"
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        with WriteAheadLog(path) as wal:
            wal.append("add_tenant", "a", {"n": 1})
            before = path.read_bytes()
            with pytest.raises(WalError, match="one tenant"):
                wal.append_group([
                    ("update_resource", "a", {"resource_id": 1}),
                    ("update_resource", "b", {"resource_id": 2}),
                ])
            assert wal.next_op_id == 1  # no op-id was consumed
        assert registry.value_of("wal_frames_total") == 1
        assert registry.value_of("wal_appends_total") == 1
    assert path.read_bytes() == before


def test_crash_sites_fire_once_per_frame_with_the_first_record(tmp_path):
    fired = []
    with WriteAheadLog(tmp_path / "ops.wal",
                       crash_hook=lambda site, record: fired.append(
                           (site, record.op_id))) as wal:
        wal.append("add_tenant", "a")
        wal.append_group([("update_resource", "a", {"resource_id": i})
                          for i in range(3)])
    sites = ["wal.before_append", "wal.torn_append", "wal.after_append"]
    assert fired == [(s, 0) for s in sites] + [(s, 1) for s in sites]


def test_group_append_validates_kind_and_empty_burst(tmp_path):
    with WriteAheadLog(tmp_path / "ops.wal") as wal:
        assert wal.append_group([]) == []
        with pytest.raises(WalError):
            wal.append_group([("frobnicate", "a", None),
                              ("update_resource", "a", None)])


def test_truncated_group_frame_drops_the_whole_group(tmp_path):
    """All-or-nothing: chopping a log anywhere inside a group frame
    yields either every record of the group or none of them."""
    path = tmp_path / "ops.wal"
    with WriteAheadLog(path) as wal:
        wal.append("add_tenant", "a", {"n": 1})
        wal.append_group([
            ("update_resource", "a", {"resource_id": i}) for i in range(3)
        ])
        wal.append("shutdown", "__ctl__")
    blob = path.read_bytes()
    full = read_wal(path)
    assert len(full.records) == 5
    boundaries = _frame_boundaries(blob)  # 3 frames of 1, 3 and 1 records
    assert len(boundaries) == 4
    target = tmp_path / "cut.wal"
    for cut in range(len(WAL_MAGIC), len(blob) + 1):
        target.write_bytes(blob[:cut])
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            result = read_wal(target)
        assert result.torn == (0 if cut in boundaries else 1), f"cut={cut}"
        assert result.records == full.records[:len(result.records)]
        # Never a partial group: 0, 1, 1+3, or all 5 records.
        assert len(result.records) in (0, 1, 4, 5), f"cut={cut}"


# -- the torn-write fuzz: every offset, truncate and flip ------------------------------


def _frame_boundaries(blob: bytes) -> set[int]:
    """Every offset at which a whole number of frames ends."""
    boundaries, offset = {len(WAL_MAGIC)}, len(WAL_MAGIC)
    while offset < len(blob):
        length = int.from_bytes(blob[offset:offset + 4], "big")
        offset += 4 + length + 8  # u32 prefix + payload + checksum
        boundaries.add(offset)
    assert offset == len(blob)
    return boundaries


def _fuzz_log(tmp_path) -> bytes:
    """Frames of the shapes production writes: lone ops, markers, and a
    multi-record group like a drained controller burst."""
    path = tmp_path / "fuzz.wal"
    with WriteAheadLog(path) as wal:
        wal.append("add_tenant", "a", {"spec": spec_to_dict(
            TenantSpec(name="a", policy=_policy(), smbm_quota=8))})
        wal.append_group([
            ("update_resource", "a",
             {"resource_id": 1, "metrics": {"cpu": 5, "mem": 6}}),
            ("remove_resource", "a", {"resource_id": 1}),
            ("write_batch", "a", {"writes": [
                {"resource_id": 2, "metrics": {"cpu": 7, "mem": 8}},
                {"resource_id": 2}]}),
        ])
        wal.append("hot_swap", "a", {"note": "args are opaque here"})
        wal.append("checkpoint", "__ctl__", {"path": "x", "hwm": {"a": 2}})
        wal.append("shutdown", "__ctl__")
    return path.read_bytes()


def test_truncation_at_every_offset_never_raises(tmp_path):
    """Chop the log at every byte offset: reading must always succeed,
    return a valid prefix, and count at most one torn record."""
    blob = _fuzz_log(tmp_path)
    full = read_wal(tmp_path / "fuzz.wal")
    n_records = len(full.records)
    # A truncation exactly at a frame boundary is clean (torn == 0).
    boundaries = _frame_boundaries(blob)
    assert len(boundaries) - 1 < n_records  # some frame holds a group

    target = tmp_path / "cut.wal"
    for cut in range(len(blob) + 1):
        target.write_bytes(blob[:cut])
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            result = read_wal(target)
            torn_counted = registry.value_of("wal_torn_records_total")
        assert result.torn == torn_counted, f"cut={cut}"
        if cut < len(WAL_MAGIC):
            # Partial header: empty read; non-empty partial magic is torn.
            assert result.records == ()
            assert result.torn == (1 if cut else 0), f"cut={cut}"
            continue
        assert result.header_ok, f"cut={cut}"
        if cut in boundaries:
            assert result.torn == 0, f"cut={cut} is a frame boundary"
        else:
            assert result.torn == 1, f"cut={cut} mid-frame"
        # The trusted prefix is always a prefix of the full record list.
        assert result.records == full.records[:len(result.records)]
        assert len(result.records) <= n_records


def test_bitflip_at_every_offset_never_raises(tmp_path):
    """Flip one byte at every offset: reading must never raise, never
    trust the flipped record, and count the tear exactly once."""
    blob = _fuzz_log(tmp_path)
    full = read_wal(tmp_path / "fuzz.wal")
    target = tmp_path / "flip.wal"
    for pos in range(len(blob)):
        flipped = bytearray(blob)
        flipped[pos] ^= 0xFF
        target.write_bytes(bytes(flipped))
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            result = read_wal(target)
            torn_counted = registry.value_of("wal_torn_records_total")
        # A flip anywhere (header included) makes exactly one tear.
        assert result.torn == 1, f"pos={pos}"
        assert torn_counted == 1, f"pos={pos}"
        # Records before the flipped one still read back verbatim.
        assert result.records == full.records[:len(result.records)], (
            f"pos={pos}"
        )
        assert len(result.records) < len(full.records), f"pos={pos}"

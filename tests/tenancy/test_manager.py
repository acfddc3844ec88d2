"""TenantManager lifecycle: admission, allocation, eviction, hot-swap.

The manager is the admission-control half of the virtualization story:
everything here is about the *static* decisions — who gets which
columns, which specs are rejected with which rule id, and what the
free pools look like afterwards.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.operators import RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import Policy, TableRef, max_of, min_of, predicate
from repro.errors import CompilationError, ConfigurationError
from repro.tenancy import TenantManager, TenantSpec

PARAMS = PipelineParams(n=8)  # 4 Cell columns
METRICS = ("q", "load")


def _policy(name: str = "p") -> Policy:
    return Policy(min_of(TableRef(), "q"), name=name)


def _manager(**kwargs) -> TenantManager:
    kwargs.setdefault("smbm_capacity", 32)
    return TenantManager(METRICS, PARAMS, **kwargs)


def test_admit_allocates_disjoint_columns():
    mgr = _manager()
    a = mgr.admit(TenantSpec("a", _policy("pa"), smbm_quota=8, columns=2))
    b = mgr.admit(TenantSpec("b", _policy("pb"), smbm_quota=8, columns=1))
    assert a.columns == frozenset({0, 1})
    assert b.columns == frozenset({2})
    assert mgr.free_columns == frozenset({3})
    assert mgr.free_smbm_rows == 16
    assert len(mgr) == 2 and "a" in mgr and "c" not in mgr


def test_admit_rejects_duplicate_name():
    mgr = _manager()
    mgr.admit(TenantSpec("a", _policy(), smbm_quota=8))
    with pytest.raises(CompilationError) as exc_info:
        mgr.admit(TenantSpec("a", _policy(), smbm_quota=8))
    assert exc_info.value.rule == "TH013"
    assert "already admitted" in str(exc_info.value)


def test_admit_rejects_column_oversubscription():
    mgr = _manager()
    mgr.admit(TenantSpec("a", _policy(), smbm_quota=8, columns=3))
    with pytest.raises(CompilationError) as exc_info:
        mgr.admit(TenantSpec("b", _policy(), smbm_quota=8, columns=2))
    assert exc_info.value.rule == "TH013"
    # Nothing was provisioned by the failed admission.
    assert len(mgr) == 1
    assert mgr.free_columns == frozenset({3})


def test_admit_rejects_smbm_oversubscription():
    mgr = _manager(smbm_capacity=16)
    mgr.admit(TenantSpec("a", _policy(), smbm_quota=12))
    with pytest.raises(CompilationError) as exc_info:
        mgr.admit(TenantSpec("b", _policy(), smbm_quota=8))
    assert exc_info.value.rule == "TH013"
    assert mgr.free_smbm_rows == 4


def test_admit_rejects_cell_quota_above_strip():
    mgr = _manager()
    with pytest.raises(CompilationError) as exc_info:
        mgr.admit(TenantSpec(
            "a", _policy(), smbm_quota=8, columns=1,
            cell_quota=PARAMS.k + 1,
        ))
    assert exc_info.value.rule == "TH013"


def test_check_admission_is_a_dry_run():
    mgr = _manager()
    report = mgr.check_admission(
        TenantSpec("a", _policy(), smbm_quota=999)
    )
    assert not report.ok
    assert {f.rule for f in report.findings} == {"TH013"}
    assert len(mgr) == 0 and mgr.free_smbm_rows == 32


def test_evict_returns_resources():
    mgr = _manager()
    mgr.admit(TenantSpec("a", _policy("pa"), smbm_quota=8, columns=2))
    mgr.evict("a")
    assert len(mgr) == 0
    assert mgr.free_columns == frozenset({0, 1, 2, 3})
    assert mgr.free_smbm_rows == 32
    # The columns are reusable immediately.
    b = mgr.admit(TenantSpec("b", _policy("pb"), smbm_quota=32, columns=4))
    assert b.columns == frozenset({0, 1, 2, 3})
    with pytest.raises(ConfigurationError):
        mgr.evict("a")


def test_admitted_module_is_slice_confined():
    """The tenant's module carries the slice: foreign Cells dead, inputs
    restricted, the SMBM sized to the row quota."""
    mgr = _manager()
    tenant = mgr.admit(
        TenantSpec("a", _policy(), smbm_quota=8, columns=1)
    )
    module = tenant.module
    assert module.tenant == "a"
    assert module.smbm.capacity == 8
    assert module.cells.input_lines == frozenset({0, 1})
    assert tenant.slice.reserved_cells(PARAMS) <= module.compiled.dead_cells
    occupied_columns = {
        c for _stage, c in _occupied(module.compiled)
    }
    assert occupied_columns <= tenant.columns


def _occupied(compiled):
    from repro.core.operators import BinaryOp, UnaryOp

    cells = set()
    for s, stage in enumerate(compiled.config.stages, start=1):
        for c, cfg in enumerate(stage.cells):
            if (cfg.kufpu1.opcode is not UnaryOp.NO_OP
                    or cfg.kufpu2.opcode is not UnaryOp.NO_OP
                    or cfg.bfpu1.opcode is not BinaryOp.NO_OP
                    or cfg.bfpu2.opcode is not BinaryOp.NO_OP):
                cells.add((s, c))
    return cells


def test_admit_rejects_policy_too_big_for_slice():
    """A plan that cannot fit the requested strip fails at admission,
    loudly, with nothing provisioned."""
    from repro.core.policy import intersection
    table = TableRef()
    wide = Policy(
        intersection(intersection(
            predicate(table, "q", RelOp.LT, 5),
            predicate(table, "load", RelOp.GT, 2),
        ), predicate(table, "q", RelOp.GT, 1)),
        name="wide",
    )
    mgr = _manager()
    with pytest.raises(CompilationError):
        mgr.admit(TenantSpec("a", wide, smbm_quota=8, columns=1))
    assert len(mgr) == 0
    assert mgr.free_columns == frozenset({0, 1, 2, 3})


def test_hot_swap_replaces_policy_and_bumps_epoch():
    mgr = _manager()
    tenant = mgr.admit(TenantSpec("a", _policy("old"), smbm_quota=8))
    mgr.update_resource("a", 0, {"q": 3, "load": 9})
    mgr.update_resource("a", 1, {"q": 5, "load": 1})
    assert tenant.plan_epoch == 0
    old_out = tenant.module.evaluate().value
    epoch = mgr.hot_swap(
        "a", Policy(predicate(TableRef(), "load", RelOp.LT, 5), name="new"),
    )
    assert epoch == 1 and tenant.plan_epoch == 1
    new_out = tenant.module.evaluate().value
    assert old_out == 0b01 and new_out == 0b10


def test_hot_swap_gate_rejects_oversized_plan():
    """A replacement that cannot fit the slice aborts the swap; the live
    plan keeps serving and the epoch does not move."""
    mgr = _manager()
    tenant = mgr.admit(TenantSpec("a", _policy("old"), smbm_quota=8))
    mgr.update_resource("a", 0, {"q": 3, "load": 9})
    before = tenant.module.evaluate().value
    from repro.core.policy import intersection
    table = TableRef()
    too_big = Policy(
        intersection(intersection(
            predicate(table, "q", RelOp.LT, 5),
            predicate(table, "load", RelOp.GT, 2),
        ), predicate(table, "q", RelOp.GT, 1)),
        name="wide",
    )
    with pytest.raises(CompilationError):
        mgr.hot_swap("a", too_big)
    assert tenant.plan_epoch == 0
    assert tenant.module.evaluate().value == before


def test_admission_metrics():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        mgr = _manager()
        mgr.admit(TenantSpec("a", _policy(), smbm_quota=8))
        with pytest.raises(CompilationError):
            mgr.admit(TenantSpec("b", _policy(), smbm_quota=99))
        snap = obs.snapshot(registry)
    counters = snap["counters"]
    admitted = [v for k, v in counters.items()
                if k.startswith("tenant_admissions_total")
                and "admitted" in k]
    rejected = [v for k, v in counters.items()
                if k.startswith("tenant_admissions_total")
                and "rejected" in k]
    assert admitted == [1] and rejected == [1]
    gauges = snap["gauges"]
    assert [v for k, v in gauges.items()
            if k.startswith("tenants_admitted")] == [1]

"""Cross-backend checkpoint conformance: the TH015 faithfulness check.

A :class:`~repro.serving.backend.SwitchBackend` promises that a tenant
recreated from a checkpoint serves *bit-identically* to the source —
same stored table words, same FIFO enqueue order, same version counter,
same live policy, same epoch watermark.  This module verifies that
promise by comparing the two sides' snapshots field by field and
reporting every divergence as a TH015 finding.

It is written against structural protocols, not the serving classes:
the analysis layer stays importable (and ``mypy --strict``-clean) with
no dependency on — and no import cycle with — :mod:`repro.serving`.
Anything exposing ``snapshot_tenant(name).payload()`` conforms.
"""

from __future__ import annotations

from typing import Any, Mapping, Protocol

from repro.analysis.findings import Report

__all__ = [
    "TenantSnapshot",
    "SnapshotSource",
    "diff_tenant_payloads",
    "verify_checkpoint_roundtrip",
]


class TenantSnapshot(Protocol):
    """What a tenant checkpoint must expose: a comparable payload dict."""

    def payload(self) -> dict[str, Any]: ...


class SnapshotSource(Protocol):
    """What a backend must expose to be conformance-checked."""

    def snapshot_tenant(self, name: str) -> TenantSnapshot: ...


def _diff_smbm(report: Report, src: Mapping[str, Any],
               dst: Mapping[str, Any]) -> None:
    """SMBM state comparison, split so each divergence names its facet."""
    for facet, what in (
        ("version", "version counter"),
        ("next_seq", "FIFO sequence allocator"),
        ("capacity", "table capacity"),
        ("metric_names", "metric schema"),
    ):
        if src.get(facet) != dst.get(facet):
            report.add(
                "TH015",
                f"SMBM {what} diverges across the checkpoint: source "
                f"{src.get(facet)!r} vs restored {dst.get(facet)!r}",
            )
    src_rows = src.get("rows")
    dst_rows = dst.get("rows")
    if src_rows != dst_rows:
        src_ids = set(src_rows) if isinstance(src_rows, Mapping) else set()
        dst_ids = set(dst_rows) if isinstance(dst_rows, Mapping) else set()
        missing = sorted(src_ids - dst_ids)
        extra = sorted(dst_ids - src_ids)
        changed = sorted(
            rid for rid in src_ids & dst_ids
            if isinstance(src_rows, Mapping)
            and isinstance(dst_rows, Mapping)
            and src_rows[rid] != dst_rows[rid]
        )
        report.add(
            "TH015",
            "SMBM stored rows diverge across the checkpoint: "
            f"missing={missing} extra={extra} changed={changed}",
        )
    if src.get("seq") != dst.get("seq"):
        report.add(
            "TH015",
            "SMBM FIFO enqueue order diverges across the checkpoint "
            "(per-row sequence numbers differ)",
        )


def diff_tenant_payloads(source: Mapping[str, Any],
                         restored: Mapping[str, Any],
                         *, subject: str = "tenant") -> Report:
    """Every TH015 divergence between two tenant checkpoint payloads."""
    report = Report(subject=f"checkpoint conformance of {subject}")
    src_smbm = source.get("smbm_state")
    dst_smbm = restored.get("smbm_state")
    if isinstance(src_smbm, Mapping) and isinstance(dst_smbm, Mapping):
        _diff_smbm(report, src_smbm, dst_smbm)
    elif src_smbm != dst_smbm:
        report.add("TH015", "SMBM state missing on one side of the "
                            "checkpoint boundary")
    if source.get("policy") != restored.get("policy"):
        report.add(
            "TH015",
            "live policy DAG diverges across the checkpoint (the restored "
            "tenant would evaluate a different plan)",
        )
    if source.get("plan_epoch") != restored.get("plan_epoch"):
        report.add(
            "TH015",
            f"plan-epoch watermark diverges: source "
            f"{source.get('plan_epoch')!r} vs restored "
            f"{restored.get('plan_epoch')!r} — migrated outputs would "
            "stamp the wrong epoch lineage",
        )
    for key in ("name", "smbm_quota", "columns", "cell_quota", "lfsr_seed",
                "self_healing", "sanitize", "codegen"):
        if source.get(key) != restored.get(key):
            report.add(
                "TH015",
                f"admission spec field {key!r} diverges: source "
                f"{source.get(key)!r} vs restored {restored.get(key)!r}",
            )
    return report


def verify_checkpoint_roundtrip(source: SnapshotSource, dest: SnapshotSource,
                                tenant: str) -> Report:
    """Snapshot ``tenant`` on both backends and report every divergence.

    Intended use: after a restore or a live migration's dual-running
    phase, ``verify_checkpoint_roundtrip(src_backend, dst_backend, name)``
    must come back :attr:`~repro.analysis.findings.Report.clean` — any
    TH015 finding means the destination would serve differently than the
    source.
    """
    src_payload = source.snapshot_tenant(tenant).payload()
    dst_payload = dest.snapshot_tenant(tenant).payload()
    return diff_tenant_payloads(src_payload, dst_payload, subject=tenant)

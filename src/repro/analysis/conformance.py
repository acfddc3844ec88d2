"""Cross-backend checkpoint conformance: the TH015 faithfulness check.

A :class:`~repro.serving.backend.SwitchBackend` promises that a tenant
recreated from a checkpoint serves *bit-identically* to the source —
same stored table words, same FIFO enqueue order, same version counter,
same live policy, same epoch watermark.  This module verifies that
promise by comparing the two sides' snapshot payloads key by key and
reporting every divergence as a TH015 finding.  It is the one "same
state?" predicate: the restore tests, the live-migration cutover gate
and the model-based serving tests all ask it.

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


def _brief(value: object, limit: int = 60) -> str:
    """``repr`` cut to one line's worth (a policy document is long)."""
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


_SMBM_FACETS = {
    "version": "version counter",
    "next_seq": "FIFO sequence allocator",
    "capacity": "table capacity",
    "metric_names": "metric schema",
}


def _diff_smbm(report: Report, src: Mapping[str, Any],
               dst: Mapping[str, Any]) -> None:
    """SMBM state comparison, split so each divergence names its facet."""
    for facet in sorted(src.keys() | dst.keys()):
        a, b = src.get(facet), dst.get(facet)
        if a == b:
            continue
        if facet == "rows" and isinstance(a, Mapping) and isinstance(
                b, Mapping):
            changed = sorted(r for r in a.keys() & b.keys() if a[r] != b[r])
            report.add(
                "TH015",
                "SMBM stored rows diverge across the checkpoint: "
                f"missing={sorted(a.keys() - b.keys())} "
                f"extra={sorted(b.keys() - a.keys())} changed={changed}",
            )
        elif facet == "seq":
            report.add(
                "TH015",
                "SMBM FIFO enqueue order diverges across the checkpoint "
                "(per-row sequence numbers differ)",
            )
        else:
            report.add(
                "TH015",
                f"SMBM {_SMBM_FACETS.get(facet, facet)} diverges across the "
                f"checkpoint: source {_brief(a)} vs restored {_brief(b)}",
            )


def diff_tenant_payloads(source: Mapping[str, Any],
                         restored: Mapping[str, Any],
                         *, subject: str = "tenant") -> Report:
    """Every TH015 divergence between two tenant checkpoint payloads.

    The payload *is* the tenant's state: every key either side carries is
    compared, so a state component added to the payload is covered here
    without this function learning its name.  Only ``smbm_state`` is
    opened up, so a table divergence names its facet.
    """
    report = Report(subject=f"checkpoint conformance of {subject}")
    for key in sorted(source.keys() | restored.keys()):
        src, dst = source.get(key), restored.get(key)
        if (key == "smbm_state" and isinstance(src, Mapping)
                and isinstance(dst, Mapping)):
            _diff_smbm(report, src, dst)
        elif src != dst or (key in source) != (key in restored):
            report.add(
                "TH015",
                f"tenant state {key!r} diverges across the checkpoint: "
                f"source {_brief(src)} vs restored {_brief(dst)}",
            )
    return report


def verify_checkpoint_roundtrip(source: SnapshotSource, dest: SnapshotSource,
                                tenant: str) -> Report:
    """Snapshot ``tenant`` on both backends and report every divergence.

    After a restore or a live migration's dual-running phase the report
    must come back :attr:`~repro.analysis.findings.Report.clean` — any
    TH015 finding means the destination would serve differently than the
    source.
    """
    src_payload = source.snapshot_tenant(tenant).payload()
    dst_payload = dest.snapshot_tenant(tenant).payload()
    return diff_tenant_payloads(src_payload, dst_payload, subject=tenant)

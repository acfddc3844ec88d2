"""Parity maintenance and background scrubbing for the SMBM.

:class:`ECCStore` subscribes to the table's committed writes and keeps one
SECDED check word per stored metric word.  An SEU (injected through
:meth:`SMBM.corrupt_stored_bit`) changes the data word *without* telling
the store, so the check word disagrees — which is exactly what
:class:`Scrubber` sweeps for.

The scrubber repairs corrupted words in place through
:meth:`SMBM.repair_row`.  A repair is a committed write: it bumps the table
version and moves each repaired entry to its corrected rank, patching that
metric's :class:`~repro.core.smbm.MetricIndex` masks, so any version-keyed
policy memo is invalidated and the next read sees the corrected table —
the "invalidate caches on detected corruption" contract.

Detection latency is bounded by the *scrub period*: a full :meth:`scrub`
pass visits every row, and the incremental :meth:`scrub_step` cursor
guarantees every row is visited once per ``ceil(len(table)/rows_per_step)``
steps.  Uncorrectable (double-bit) corruption is quarantined: the row is
deleted, so the resource drops out of every filter decision, the safe
degraded mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import obs
from repro.core.smbm import SMBM
from repro.errors import ConfigurationError
from repro.faults.ecc import ecc_check_word, ecc_decode

__all__ = ["ScrubEvent", "ECCStore", "Scrubber"]


@dataclass(frozen=True)
class ScrubEvent:
    """One detection made by a scrub pass.

    ``action`` is ``"corrected"`` (single-bit flip repaired in place) or
    ``"quarantined"`` (uncorrectable row deleted).  ``metrics`` names the
    dimensions found corrupted.
    """

    resource_id: int
    action: str
    metrics: tuple[str, ...]


class ECCStore:
    """Check words for every stored metric word, kept in write lockstep.

    Attaches to the table's write-listener hook at construction and encodes
    whatever rows already exist, so it can be bolted onto a live table.
    """

    def __init__(self, smbm: SMBM):
        self._smbm = smbm
        self._checks: dict[int, dict[str, int]] = {}
        for rid, row in smbm.snapshot().items():
            self._checks[rid] = {m: ecc_check_word(v) for m, v in row.items()}
        smbm.add_write_listener(self._on_write)

    @property
    def smbm(self) -> SMBM:
        return self._smbm

    def __len__(self) -> int:
        return len(self._checks)

    def _on_write(self, kind: str, resource_id: int, row) -> None:
        if kind == "delete":
            self._checks.pop(resource_id, None)
        else:  # add / repair: row is the committed values
            self._checks[resource_id] = {
                m: ecc_check_word(v) for m, v in row.items()
            }

    def snapshot(self) -> dict[int, dict[str, int]]:
        """Deep copy of every row's check words.

        Checkpoint tests compare this across a table restore: the
        write-listener protocol replays ``restore`` events per surviving
        row, so a store attached to the restored table must end up with
        check words identical to the original's.
        """
        return {rid: dict(checks) for rid, checks in self._checks.items()}

    def verify_row(self, resource_id: int) -> dict[str, "object"]:
        """Decode every metric word of one row: ``{metric: ECCResult}``."""
        checks = self._checks.get(resource_id)
        if checks is None:
            raise ConfigurationError(
                f"no check words for resource {resource_id}"
            )
        row = self._smbm.metrics_of(resource_id)
        return {m: ecc_decode(row[m], c) for m, c in checks.items()}


class Scrubber:
    """Background sweep over the table, correcting what the ECC can.

    A row with a double-bit (uncorrectable) word is quarantined: deleted,
    so the resource drops out of every filter decision.

    Detections and repairs are counted and timed through ``repro.obs``:
    ``faults_detected_total{kind="seu"}``, ``smbm_scrub_rows_total``,
    ``smbm_scrub_repairs_total``, ``smbm_scrub_quarantines_total``,
    ``repair_latency_ns{component="scrubber"}``.
    """

    def __init__(self, store: ECCStore):
        self._store = store
        self._cursor = 0
        registry = obs.get_registry()
        self._obs_enabled = registry.enabled
        self._obs_rows = registry.counter(
            "smbm_scrub_rows_total",
            help="rows verified against their check words",
        )
        self._obs_detected = registry.counter(
            "faults_detected_total", {"kind": "seu"},
            help="stored words found disagreeing with their check words",
        )
        self._obs_repairs = registry.counter(
            "smbm_scrub_repairs_total",
            help="rows corrected in place by the scrubber",
        )
        self._obs_quarantined = registry.counter(
            "smbm_scrub_quarantines_total",
            help="uncorrectable rows deleted by the scrubber",
        )
        self._obs_repair_ns = registry.histogram(
            "repair_latency_ns", {"component": "scrubber"},
            help="detection-to-repaired wall time per row (ns, pow2 buckets)",
        )

    def _scrub_row(self, resource_id: int) -> ScrubEvent | None:
        smbm = self._store.smbm
        self._obs_rows.inc()
        results = self._store.verify_row(resource_id)
        bad = {m: r for m, r in results.items() if r.detected}
        if not bad:
            return None
        t0 = time.perf_counter_ns()
        # One detection event per corrupted word.
        self._obs_detected.inc(len(bad))
        if any(r.status == "uncorrectable" for r in bad.values()):
            smbm.delete(resource_id)
            self._obs_quarantined.inc()
            self._obs_repair_ns.observe(time.perf_counter_ns() - t0)
            return ScrubEvent(resource_id, "quarantined", tuple(sorted(bad)))
        corrected = dict(smbm.metrics_of(resource_id))
        for metric, result in bad.items():
            corrected[metric] = result.corrected
        smbm.repair_row(resource_id, corrected)
        self._obs_repairs.inc()
        self._obs_repair_ns.observe(time.perf_counter_ns() - t0)
        return ScrubEvent(resource_id, "corrected", tuple(sorted(bad)))

    def scrub(self) -> list[ScrubEvent]:
        """One full pass over every row; returns the detections made."""
        events = []
        for rid in sorted(self._store.smbm.snapshot()):
            event = self._scrub_row(rid)
            if event is not None:
                events.append(event)
        return events

    def scrub_step(self, rows: int = 1) -> list[ScrubEvent]:
        """Scrub the next ``rows`` rows in id order (wrapping cursor).

        The incremental form a background task uses: calling this every
        cycle with a fixed budget bounds detection latency to one full
        rotation of the cursor (the *scrub period*).
        """
        if rows < 1:
            raise ConfigurationError(f"rows must be >= 1, got {rows}")
        ids = sorted(self._store.smbm.snapshot())
        if not ids:
            return []
        events = []
        for _ in range(min(rows, len(ids))):
            if self._cursor >= len(ids):
                self._cursor = 0
            event = self._scrub_row(ids[self._cursor])
            if event is not None:
                events.append(event)
            self._cursor += 1
        return events

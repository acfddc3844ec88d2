"""ECCStore lockstep maintenance and Scrubber detection/repair."""

import pytest

from repro import obs
from repro.core.smbm import SMBM, STORED_WORD_BITS
from repro.errors import ConfigurationError
from repro.faults.scrub import ECCStore, Scrubber

METRICS = ("cpu", "mem")


def make_table(n_rows=6, rng=None):
    smbm = SMBM(max(n_rows, 8), METRICS)
    for rid in range(n_rows):
        if rng is None:
            smbm.add(rid, {"cpu": 10 * rid, "mem": 50 + rid})
        else:
            smbm.add(rid, {"cpu": rng.randrange(1000),
                           "mem": rng.randrange(1000)})
    return smbm


class TestECCStore:
    def test_encodes_existing_rows(self):
        smbm = make_table(3)
        store = ECCStore(smbm)
        assert len(store) == 3
        for rid in range(3):
            assert all(r.clean for r in store.verify_row(rid).values())

    def test_lockstep_on_add_update_delete(self):
        smbm = make_table(2)
        store = ECCStore(smbm)
        smbm.add(4, {"cpu": 1, "mem": 2})
        assert all(r.clean for r in store.verify_row(4).values())
        smbm.update(4, {"cpu": 99, "mem": 98})
        assert all(r.clean for r in store.verify_row(4).values())
        smbm.delete(4)
        with pytest.raises(ConfigurationError):
            store.verify_row(4)

    def test_detects_injected_flip(self):
        smbm = make_table(2)
        store = ECCStore(smbm)
        smbm.corrupt_stored_bit(1, "cpu", 3)
        results = store.verify_row(1)
        assert results["cpu"].status == "corrected"
        assert results["mem"].clean


class TestScrubber:
    def test_full_pass_repairs_to_original(self, rng):
        smbm = make_table(6, rng)
        original = {rid: dict(smbm.metrics_of(rid)) for rid in smbm.snapshot()}
        scrubber = Scrubber(ECCStore(smbm))
        flips = [(0, "cpu", 5), (3, "mem", 60), (5, "cpu", 0)]
        for rid, metric, bit in flips:
            smbm.corrupt_stored_bit(rid, metric, bit)
        events = scrubber.scrub()
        assert {e.resource_id for e in events} == {0, 3, 5}
        assert all(e.action == "corrected" for e in events)
        for rid, row in original.items():
            assert dict(smbm.metrics_of(rid)) == row

    def test_repair_bumps_version(self):
        smbm = make_table(2)
        scrubber = Scrubber(ECCStore(smbm))
        smbm.corrupt_stored_bit(0, "cpu", 1)
        v = smbm.version
        scrubber.scrub()
        assert smbm.version > v  # memo/index invalidation contract

    def test_scrub_step_cursor_bounds_detection(self, rng):
        """Every row is visited within one full cursor rotation."""
        n = 8
        smbm = make_table(n, rng)
        scrubber = Scrubber(ECCStore(smbm))
        rid = rng.randrange(n)
        metric = rng.choice(METRICS)
        smbm.corrupt_stored_bit(rid, metric, rng.randrange(STORED_WORD_BITS))
        detected = []
        for _ in range(n):  # one scrub period at rows=1
            detected += scrubber.scrub_step(rows=1)
        assert [e.resource_id for e in detected] == [rid]

    def test_scrub_step_budget_and_wrap(self):
        smbm = make_table(5)
        scrubber = Scrubber(ECCStore(smbm))
        # Budget larger than the table degrades to one full pass.
        assert scrubber.scrub_step(rows=50) == []
        smbm.corrupt_stored_bit(4, "mem", 2)
        assert [e.resource_id for e in scrubber.scrub_step(rows=5)] == [4]

    def test_quarantine_on_double_bit(self):
        smbm = make_table(3)
        scrubber = Scrubber(ECCStore(smbm))
        smbm.corrupt_stored_bit(1, "cpu", 1)
        smbm.corrupt_stored_bit(1, "cpu", 7)
        events = scrubber.scrub()
        assert events == [e for e in events if e.action == "quarantined"]
        assert 1 not in smbm  # dropped from every filter decision

    def test_zero_row_budget_rejected(self):
        scrubber = Scrubber(ECCStore(make_table(1)))
        with pytest.raises(ConfigurationError):
            scrubber.scrub_step(rows=0)

    def test_detection_counters(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            smbm = make_table(4)
            scrubber = Scrubber(ECCStore(smbm))
            smbm.corrupt_stored_bit(0, "cpu", 1)
            smbm.corrupt_stored_bit(2, "mem", 9)
            scrubber.scrub()
            snap = obs.snapshot(registry)
        counters = snap["counters"]
        assert counters['faults_detected_total{kind="seu"}'] == 2
        assert counters["smbm_scrub_repairs_total"] == 2
        assert counters["smbm_scrub_rows_total"] == 4
        hist = snap["histograms"]['repair_latency_ns{component="scrubber"}']
        assert hist["count"] == 2

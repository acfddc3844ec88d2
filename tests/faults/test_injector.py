"""FaultInjector: seeded determinism and exact injection accounting."""

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.faults import FaultInjector
from repro.switch.replication import ReplicatedSMBM

METRICS = ("cpu", "mem")
CLASH = {1: {"cpu": 1, "mem": 1}, 2: {"cpu": 2, "mem": 2}}


def test_same_seed_same_schedule():
    def run(seed):
        inj = FaultInjector(seed)
        rep = ReplicatedSMBM(3, 1 << 16, METRICS)
        inj.contend_writes(rep, inj.rng.randrange(1 << 16), CLASH)
        return [(e.kind, e.target, tuple(sorted(e.detail.items())))
                for e in inj.events]

    assert run(99) == run(99)
    assert run(99) != run(100)


def test_events_and_counters_agree():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        inj = FaultInjector(1)
        rep = ReplicatedSMBM(3, 4, METRICS)
        for rid in range(3):
            inj.contend_writes(rep, rid, CLASH)
        snap = obs.snapshot(registry)
    assert inj.injected() == 3
    assert inj.injected("write_contention") == 3
    assert inj.injected("link_flap") == 0
    assert snap["counters"]['faults_injected_total{kind="write_contention"}'] == 3
    assert [e.seq for e in inj.events] == [0, 1, 2]


def test_contend_writes_requires_two_pipelines():
    inj = FaultInjector(0)
    rep = ReplicatedSMBM(3, 4, METRICS)
    with pytest.raises(ConfigurationError):
        inj.contend_writes(rep, 0, {1: {"cpu": 1, "mem": 1}})

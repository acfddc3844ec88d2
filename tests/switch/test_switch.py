"""Tests for the integrated Thanos switch, filter module, and replication."""

import pytest

from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Conditional,
    Policy,
    TableRef,
    intersection,
    min_of,
    predicate,
    random_pick,
)
from repro.errors import CapacityError
from repro.rmt.packet import META_TENANT, Packet
from repro.rmt.probe import ETHERTYPE_DATA, ProbeCodec
from repro.switch.filter_module import (
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    META_FILTER_SELECTED,
    FilterModule,
)
from repro.switch.replication import ReplicatedSMBM, WriteContention
from repro.switch.thanos_switch import ThanosSwitch
from repro.tenancy.manager import TenantManager, TenantSpec

METRICS = ("util", "delay")


def least_utilised_policy() -> Policy:
    return Policy(min_of(TableRef(), "util"), name="conga")


TENANT = "t"
CODEC = ProbeCodec(METRICS)
PARSER = CODEC.build_parser()


def make_switch(policy=None, params=None) -> ThanosSwitch:
    """A dedicated switch: one tenant owning every Cell column and row."""
    params = params or PipelineParams(n=2, k=2, f=2, chain_length=2)
    manager = TenantManager(METRICS, params, smbm_capacity=8)
    manager.admit(TenantSpec(
        TENANT, policy or least_utilised_policy(), smbm_quota=8,
        columns=params.cells_per_stage,
    ))
    return ThanosSwitch(manager)


def module_of(sw: ThanosSwitch) -> FilterModule:
    return sw.tenants.get(TENANT).module


def data_packet() -> Packet:
    p = Packet()
    p.push_header("ether", {"dst": 0, "src": 0, "ethertype": ETHERTYPE_DATA})
    return p


def probe(rid: int, **metrics: int) -> Packet:
    """A parsed probe packet, labelled with the switch's one tenant."""
    packet = PARSER.parse(CODEC.encode(rid, metrics))
    packet.metadata[META_TENANT] = TENANT
    return packet


def request() -> Packet:
    """A labelled data packet that asks to be filtered."""
    packet = data_packet()
    packet.metadata.update({META_FILTER_REQUEST: 1, META_TENANT: TENANT})
    return packet


class TestFilterModule:
    def test_update_and_select(self):
        fm = FilterModule(8, METRICS, least_utilised_policy(),
                          PipelineParams(n=2, k=1, f=1, chain_length=1))
        fm.update_resource(0, {"util": 50, "delay": 1})
        fm.update_resource(1, {"util": 20, "delay": 9})
        assert fm.select() == 1
        fm.update_resource(1, {"util": 90, "delay": 9})  # metric refresh
        assert fm.select() == 0

    def test_hook_bypasses_without_request(self, registry):
        fm = FilterModule(8, METRICS, least_utilised_policy(),
                          PipelineParams(n=2, k=1, f=1, chain_length=1))
        fm.update_resource(0, {"util": 5, "delay": 5})
        packet = data_packet()
        fm.evaluate_batch([packet])
        assert META_FILTER_OUTPUT not in packet.metadata
        assert registry.value_of("filter_evaluations_total") == 0

    def test_hook_writes_metadata_on_request(self):
        fm = FilterModule(8, METRICS, least_utilised_policy(),
                          PipelineParams(n=2, k=1, f=1, chain_length=1))
        fm.update_resource(3, {"util": 5, "delay": 5})
        packet = data_packet()
        packet.metadata[META_FILTER_REQUEST] = 1
        fm.evaluate_batch([packet])
        assert packet.metadata[META_FILTER_SELECTED] == 3
        assert packet.metadata[META_FILTER_OUTPUT] == 1 << 3

    def test_non_singleton_selected_is_minus_one(self):
        policy = Policy(predicate(TableRef(), "util", "<", 100))
        fm = FilterModule(8, METRICS, policy,
                          PipelineParams(n=2, k=1, f=1, chain_length=1))
        fm.update_resource(0, {"util": 5, "delay": 5})
        fm.update_resource(1, {"util": 6, "delay": 6})
        packet = data_packet()
        packet.metadata[META_FILTER_REQUEST] = 1
        fm.evaluate_batch([packet])
        assert packet.metadata[META_FILTER_SELECTED] == -1
        assert packet.metadata[META_FILTER_OUTPUT] == 0b11

    def test_remove_resource(self):
        fm = FilterModule(8, METRICS, least_utilised_policy(),
                          PipelineParams(n=2, k=1, f=1, chain_length=1))
        fm.update_resource(0, {"util": 5, "delay": 5})
        fm.remove_resource(0)
        assert fm.select() is None

    def test_latency_exposed(self):
        fm = FilterModule(8, METRICS, least_utilised_policy(),
                          PipelineParams(n=2, k=2, f=2, chain_length=2))
        assert fm.latency_cycles == 2 * (2 * 2 + 1)


class TestThanosSwitch:
    """A dedicated switch is a one-tenant manager: probes and filter
    requests carry that tenant's label."""

    def test_probe_updates_resource_table(self):
        sw = make_switch()
        sw.process_batch([probe(2, util=30, delay=4)])
        assert sw.probes_processed == 1
        assert module_of(sw).smbm.metrics_of(2) == {"util": 30, "delay": 4}

    def test_probe_refresh_overwrites(self):
        sw = make_switch()
        sw.process_batch([probe(2, util=30, delay=4)])
        sw.process_batch([probe(2, util=70, delay=9)])
        assert module_of(sw).smbm.metrics_of(2)["util"] == 70

    def test_data_packet_filtering_end_to_end(self):
        """Probes fill the table; a data packet picks the least-utilised path."""
        sw = make_switch()
        for rid, util in [(0, 60), (1, 10), (2, 40)]:
            sw.process_batch([probe(rid, util=util, delay=0)])
        [packet] = sw.process_batch([request()])
        assert packet.metadata[META_FILTER_SELECTED] == 1

    def test_process_batch_is_the_one_pass_with_one_owner(self):
        """A one-tenant switch batches like it processes per packet —
        probes commit in arrival order — and refuses a probe id past its
        tenant's quota whole, committing nothing."""
        def stream(ids):
            packets = []
            for rid, util in zip(ids, [60, 10, 40, 5]):
                packets += [probe(rid, util=util, delay=0), request()]
            return packets

        batched, scalar = make_switch(), make_switch()
        served = batched.process_batch(stream(range(4)))
        want = [p for one in stream(range(4))
                for p in scalar.process_batch([one])]
        assert [p.metadata[META_FILTER_SELECTED] for p in served[1::2]] == [
            0, 1, 1, 3]
        assert [p.metadata for p in served] == [p.metadata for p in want]
        assert batched.probes_processed == scalar.probes_processed == 4
        fresh = make_switch()
        packets = stream([0, 1, 8, 2])
        with pytest.raises(CapacityError, match="resource id 8"):
            fresh.process_batch(packets)
        assert len(module_of(fresh).smbm) == fresh.probes_processed == 0
        assert not any(META_FILTER_OUTPUT in p.metadata for p in packets)

    def test_data_packet_without_request_bypasses(self):
        """A packet that asks for nothing needs no tenant label."""
        sw = make_switch()
        [packet] = sw.process_batch([data_packet()])
        assert META_FILTER_SELECTED not in packet.metadata

    def test_conditional_policy_through_switch(self):
        servers = TableRef()
        eligible = intersection(
            predicate(servers, "util", "<", 50),
            predicate(servers, "delay", "<", 5),
        )
        policy = Policy(Conditional(random_pick(eligible), random_pick(TableRef())))
        sw = make_switch(policy, PipelineParams(n=4, k=3, f=2, chain_length=2))
        sw.process_batch([probe(0, util=90, delay=9)])
        sw.process_batch([probe(1, util=10, delay=1)])
        [packet] = sw.process_batch([request()])
        assert packet.metadata[META_FILTER_SELECTED] == 1

    def test_local_metric_event_hooks(self):
        """Queue-length maintenance on enqueue/dequeue events (section 3):
        the network function writes the local metric through its tenant's
        module, and the next request is served on it."""
        sw = make_switch()
        module = module_of(sw)

        def on_queue(port, delta):
            table = module.smbm
            current = (table.metrics_of(port) if port in table
                       else {"util": 0, "delay": 0})
            current["util"] += delta
            module.update_resource(port, current)

        on_queue(3, +1)
        on_queue(3, +1)
        on_queue(3, -1)
        on_queue(5, +1)
        on_queue(5, +1)
        assert module.smbm.metrics_of(3)["util"] == 1
        [packet] = sw.process_batch([request()])
        assert packet.metadata[META_FILTER_SELECTED] == 3


class TestReplicatedSMBM:
    def test_writes_apply_to_all_replicas(self):
        rep = ReplicatedSMBM(4, 8, ["x"])
        rep.issue_update(0, 3, {"x": 7})
        rep.commit_cycle()
        for p in range(4):
            assert rep.replica(p).metrics_of(3) == {"x": 7}
        rep.check_synchronised()

    def test_different_resources_same_cycle_ok(self):
        """Parallel updates from multiple pipelines land together."""
        rep = ReplicatedSMBM(2, 8, ["x"])
        rep.issue_update(0, 1, {"x": 1})
        rep.issue_update(1, 2, {"x": 2})
        rep.commit_cycle()
        rep.check_synchronised()
        assert len(rep.replica(0)) == 2

    def test_same_resource_same_cycle_contends(self):
        """The hazard the paper's one-path-per-resource rule precludes."""
        rep = ReplicatedSMBM(2, 8, ["x"])
        rep.issue_update(0, 1, {"x": 1})
        rep.issue_update(1, 1, {"x": 2})
        with pytest.raises(WriteContention):
            rep.commit_cycle()

    def test_same_pipeline_rewrites_are_fine(self):
        rep = ReplicatedSMBM(2, 8, ["x"])
        rep.issue_update(0, 1, {"x": 1})
        rep.issue_update(0, 1, {"x": 2})
        rep.commit_cycle()
        assert rep.replica(1).metrics_of(1) == {"x": 2}

    def test_delete_replicated(self):
        rep = ReplicatedSMBM(3, 8, ["x"])
        rep.issue_update(0, 1, {"x": 1})
        rep.commit_cycle()
        rep.issue_delete(2, 1)
        rep.commit_cycle()
        for p in range(3):
            assert 1 not in rep.replica(p)

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
from repro.errors import CapacityError, ConfigurationError
from repro.rmt.packet import META_TENANT, Packet
from repro.rmt.probe import ETHER_HEADER, ETHERTYPE_DATA
from repro.switch.filter_module import (
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    META_FILTER_SELECTED,
    FilterModule,
)
from repro.switch.replication import ReplicatedSMBM, WriteContention
from repro.switch.thanos_switch import ThanosSwitch

METRICS = ("util", "delay")


def least_utilised_policy() -> Policy:
    return Policy(min_of(TableRef(), "util"), name="conga")


def make_switch(policy=None) -> ThanosSwitch:
    return ThanosSwitch(FilterModule(
        8, METRICS, policy or least_utilised_policy(),
        PipelineParams(n=2, k=2, f=2, chain_length=2),
    ))


def data_packet() -> Packet:
    p = Packet()
    p.push_header("ether", {"dst": 0, "src": 0, "ethertype": ETHERTYPE_DATA})
    return p


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
        fm.hook(packet)
        assert META_FILTER_OUTPUT not in packet.metadata
        assert registry.value_of("filter_evaluations_total") == 0

    def test_hook_writes_metadata_on_request(self):
        fm = FilterModule(8, METRICS, least_utilised_policy(),
                          PipelineParams(n=2, k=1, f=1, chain_length=1))
        fm.update_resource(3, {"util": 5, "delay": 5})
        packet = data_packet()
        packet.metadata[META_FILTER_REQUEST] = 1
        fm.hook(packet)
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
        fm.hook(packet)
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
    def test_probe_updates_resource_table(self):
        sw = make_switch()
        codec_wire = sw._codec.encode(2, {"util": 30, "delay": 4})
        sw.receive_bytes(codec_wire)
        assert sw.probes_processed == 1
        assert sw.filter_module.smbm.metrics_of(2) == {"util": 30, "delay": 4}

    def test_probe_refresh_overwrites(self):
        sw = make_switch()
        sw.receive_bytes(sw._codec.encode(2, {"util": 30, "delay": 4}))
        sw.receive_bytes(sw._codec.encode(2, {"util": 70, "delay": 9}))
        assert sw.filter_module.smbm.metrics_of(2)["util"] == 70

    def test_data_packet_filtering_end_to_end(self):
        """Probes fill the table; a data packet picks the least-utilised path."""
        sw = make_switch()
        for rid, util in [(0, 60), (1, 10), (2, 40)]:
            sw.receive_bytes(sw._codec.encode(rid, {"util": util, "delay": 0}))
        packet = sw.filter_for(data_packet())
        assert packet.metadata[META_FILTER_SELECTED] == 1

    def test_process_batch_is_the_one_pass_with_one_owner(self):
        """A dedicated switch batches like it processes per packet —
        probes commit in arrival order, tenant labels are not read — and
        refuses a probe id past its table whole."""
        def stream(sw, ids):
            packets = []
            for rid, util in zip(ids, [60, 10, 40, 5]):
                packets.append(sw._parser.parse(
                    sw._codec.encode(rid, {"util": util, "delay": 0})))
                packets.append(data_packet())
                packets[-1].metadata.update(
                    {META_FILTER_REQUEST: 1, META_TENANT: "unread"})
            return packets

        batched, scalar = make_switch(), make_switch()
        served = batched.process_batch(stream(batched, range(4)))
        want = [scalar.process(p) for p in stream(scalar, range(4))]
        assert [p.metadata[META_FILTER_SELECTED] for p in served[1::2]] == [
            0, 1, 1, 3]
        assert [p.metadata for p in served] == [p.metadata for p in want]
        assert batched.probes_processed == scalar.probes_processed == 4
        fresh = make_switch()
        packets = stream(fresh, [0, 1, 8, 2])
        with pytest.raises(CapacityError, match="resource id 8"):
            fresh.process_batch(packets)
        assert len(fresh.filter_module.smbm) == fresh.probes_processed == 0
        assert not any(META_FILTER_OUTPUT in p.metadata for p in packets)

    def test_data_packet_without_request_bypasses(self):
        sw = make_switch()
        packet = sw.process(data_packet())
        assert META_FILTER_SELECTED not in packet.metadata

    def test_conditional_policy_through_switch(self):
        servers = TableRef()
        eligible = intersection(
            predicate(servers, "util", "<", 50),
            predicate(servers, "delay", "<", 5),
        )
        policy = Policy(Conditional(random_pick(eligible), random_pick(TableRef())))
        sw = ThanosSwitch(FilterModule(
            8, METRICS, policy,
            PipelineParams(n=4, k=3, f=2, chain_length=2),
        ))
        sw.receive_bytes(sw._codec.encode(0, {"util": 90, "delay": 9}))
        sw.receive_bytes(sw._codec.encode(1, {"util": 10, "delay": 1}))
        packet = sw.filter_for(data_packet())
        assert packet.metadata[META_FILTER_SELECTED] == 1

    def test_local_metric_event_hooks(self):
        """Queue-length maintenance via enqueue/dequeue events (section 3)."""
        sw = make_switch()

        def on_enqueue(switch, args):
            port = args["port"]
            table = switch.filter_module.smbm
            current = table.metrics_of(port) if port in table else {"util": 0, "delay": 0}
            current["util"] += 1
            switch.filter_module.update_resource(port, current)

        def on_dequeue(switch, args):
            port = args["port"]
            current = switch.filter_module.smbm.metrics_of(port)
            current["util"] -= 1
            switch.filter_module.update_resource(port, current)

        sw.register_event("enqueue", on_enqueue)
        sw.register_event("dequeue", on_dequeue)
        sw.on_event("enqueue", port=3)
        sw.on_event("enqueue", port=3)
        sw.on_event("dequeue", port=3)
        assert sw.filter_module.smbm.metrics_of(3)["util"] == 1

    def test_duplicate_event_rejected(self):
        sw = make_switch()
        sw.register_event("e", lambda s, a: None)
        with pytest.raises(ConfigurationError):
            sw.register_event("e", lambda s, a: None)

    def test_unknown_event_rejected(self):
        with pytest.raises(ConfigurationError):
            make_switch().on_event("ghost")


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

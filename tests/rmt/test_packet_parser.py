"""Tests for packets, header serialisation, and the programmable parser."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.rmt.packet import FieldDef, HeaderDef, Packet
from repro.rmt.parser import ACCEPT, Parser, ParseState
from repro.rmt.probe import ETHER_HEADER, ETHERTYPE_DATA, ETHERTYPE_PROBE, ProbeCodec

IPV4ISH = HeaderDef(
    "ip",
    (
        FieldDef("src", 32),
        FieldDef("dst", 32),
        FieldDef("proto", 8),
    ),
)
L4 = HeaderDef("l4", (FieldDef("sport", 16), FieldDef("dport", 16)))


def data_parser() -> Parser:
    return Parser(
        [
            ParseState(
                "start", ETHER_HEADER, "ethertype",
                transitions={ETHERTYPE_DATA: "ip"}, default=ACCEPT,
            ),
            ParseState("ip", IPV4ISH, "proto", transitions={6: "l4"}, default=ACCEPT),
            ParseState("l4", L4),
        ],
        start="start",
    )


class TestHeaderDef:
    def test_width(self):
        assert ETHER_HEADER.width_bytes == 10
        assert IPV4ISH.width_bytes == 9

    def test_pack_unpack_roundtrip(self):
        values = {"src": 0xC0A80001, "dst": 0xC0A80002, "proto": 6}
        assert IPV4ISH.unpack(IPV4ISH.pack(values)) == values

    def test_pack_rejects_wrong_fields(self):
        with pytest.raises(ConfigurationError):
            IPV4ISH.pack({"src": 1})

    def test_pack_rejects_oversized_value(self):
        with pytest.raises(ConfigurationError):
            IPV4ISH.pack({"src": 1 << 32, "dst": 0, "proto": 0})

    def test_unpack_truncated(self):
        with pytest.raises(ConfigurationError):
            IPV4ISH.unpack(b"\x00\x01")

    def test_subbyte_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            FieldDef("flag", 4)

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(ConfigurationError):
            HeaderDef("h", (FieldDef("a", 8), FieldDef("a", 8)))

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=255),
    )
    def test_property_roundtrip(self, src, dst, proto):
        values = {"src": src, "dst": dst, "proto": proto}
        assert IPV4ISH.unpack(IPV4ISH.pack(values)) == values


class TestPacket:
    def test_header_lookup(self):
        p = Packet()
        p.push_header("ip", {"src": 1, "dst": 2, "proto": 6})
        assert p.header("ip")["src"] == 1
        assert p.has_header("ip")
        assert not p.has_header("l4")

    def test_missing_header_raises(self):
        with pytest.raises(ConfigurationError):
            Packet().header("ip")

    def test_serialize_roundtrip_through_parser(self):
        p = Packet()
        p.push_header("ether", {"dst": 5, "src": 9, "ethertype": ETHERTYPE_DATA})
        p.push_header("ip", {"src": 1, "dst": 2, "proto": 6})
        p.push_header("l4", {"sport": 80, "dport": 443})
        wire = p.serialize({"ether": ETHER_HEADER, "ip": IPV4ISH, "l4": L4})
        parsed = data_parser().parse(wire + b"payload")
        assert parsed.header("l4") == {"sport": 80, "dport": 443}
        assert parsed.payload_bytes == 7


class TestParser:
    def test_follows_transitions(self):
        wire = ETHER_HEADER.pack({"dst": 0, "src": 0, "ethertype": ETHERTYPE_DATA})
        wire += IPV4ISH.pack({"src": 1, "dst": 2, "proto": 6})
        wire += L4.pack({"sport": 1, "dport": 2})
        parsed = data_parser().parse(wire)
        assert [h for h, _v in parsed.headers] == ["ether", "ip", "l4"]

    def test_default_transition(self):
        wire = ETHER_HEADER.pack({"dst": 0, "src": 0, "ethertype": 0x9999})
        parsed = data_parser().parse(wire + b"xx")
        assert [h for h, _v in parsed.headers] == ["ether"]
        assert parsed.payload_bytes == 2

    def test_non_tcp_stops_at_ip(self):
        wire = ETHER_HEADER.pack({"dst": 0, "src": 0, "ethertype": ETHERTYPE_DATA})
        wire += IPV4ISH.pack({"src": 1, "dst": 2, "proto": 17})
        parsed = data_parser().parse(wire)
        assert [h for h, _v in parsed.headers] == ["ether", "ip"]

    def test_missing_transition_raises(self):
        strict = Parser(
            [
                ParseState(
                    "start", ETHER_HEADER, "ethertype",
                    transitions={ETHERTYPE_DATA: ACCEPT},
                )
            ],
            start="start",
        )
        wire = ETHER_HEADER.pack({"dst": 0, "src": 0, "ethertype": 1})
        with pytest.raises(ConfigurationError):
            strict.parse(wire)

    def test_unknown_start_state_rejected(self):
        with pytest.raises(ConfigurationError):
            Parser([ParseState("a", ETHER_HEADER)], start="b")

    def test_unknown_transition_target_rejected(self):
        with pytest.raises(ConfigurationError):
            Parser(
                [
                    ParseState(
                        "a", ETHER_HEADER, "ethertype", transitions={1: "ghost"}
                    )
                ],
                start="a",
            )


class TestProbeCodec:
    def test_roundtrip(self):
        codec = ProbeCodec(["util", "delay"])
        wire = codec.encode(7, {"util": 55, "delay": 2**32 - 1})
        packet = codec.build_parser().parse(wire)
        update = codec.decode(packet)
        assert update is not None
        assert update.resource_id == 7
        assert update.metrics == {"util": 55, "delay": 2**32 - 1}

    @pytest.mark.parametrize("value", [-7, 2**32])
    def test_metric_outside_the_field_refused(self, value):
        """Every decodable probe is storable: the codec carries unsigned
        values only, so a negative metric never reaches the table."""
        codec = ProbeCodec(["cpu", "mem"])
        with pytest.raises(ConfigurationError):
            codec.encode(1, {"cpu": value, "mem": 3})

    def test_data_packet_decodes_to_none(self):
        codec = ProbeCodec(["util"])
        wire = ETHER_HEADER.pack({"dst": 0, "src": 0, "ethertype": ETHERTYPE_DATA})
        packet = codec.build_parser().parse(wire + b"data")
        assert codec.decode(packet) is None

    def test_schema_mismatch_rejected(self):
        codec = ProbeCodec(["util"])
        with pytest.raises(ConfigurationError):
            codec.encode(1, {"delay": 5})

    @given(
        st.integers(min_value=0, max_value=65535),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_property_roundtrip(self, rid, util, delay):
        codec = ProbeCodec(["util", "delay"])
        wire = codec.encode(rid, {"util": util, "delay": delay})
        update = codec.decode(codec.build_parser().parse(wire))
        assert update == type(update)(rid, {"util": util, "delay": delay})

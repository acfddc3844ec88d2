"""Probe packets carrying remote resource metrics (section 3, task 1).

Remote metrics (path congestion, server resource availability, ...) reach
the switch in probe packets, as in CONGA, HULA, and Contra.  The RMT
pipeline parses the probe header and extracts the metric values; Thanos then
applies them to the SMBM as a delete+add update.

Wire format (big-endian)::

    ether { dst:32, src:32, ethertype:16 }        # 0x88B5 = probe
    probe { resource_id:16, metric_1:32, ..., metric_M:32 }

A metric field carries the unsigned value as stored, so every decodable
probe fits the SMBM's unsigned stored word; :meth:`ProbeCodec.encode`
refuses a negative metric (or one of 2^32 or more) with
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import ConfigurationError
from repro.rmt.packet import FieldDef, HeaderDef, Packet
from repro.rmt.parser import ACCEPT, Parser, ParseState

__all__ = ["ETHERTYPE_PROBE", "ETHERTYPE_DATA", "ProbeUpdate", "ProbeCodec",
           "is_probe"]

ETHERTYPE_PROBE = 0x88B5
ETHERTYPE_DATA = 0x0800

ETHER_HEADER = HeaderDef(
    "ether",
    (
        FieldDef("dst", 32),
        FieldDef("src", 32),
        FieldDef("ethertype", 16),
    ),
)


def is_probe(packet: Packet) -> bool:
    """Whether :meth:`ProbeCodec.decode` would treat ``packet`` as a probe
    (it carries the probe header), without decoding it."""
    return packet.has_header("probe")


@dataclass(frozen=True)
class ProbeUpdate:
    """A decoded probe: the resource id and its fresh metric values."""

    resource_id: int
    metrics: dict[str, int]


class ProbeCodec:
    """Encode/decode probe packets for a fixed metric schema."""

    def __init__(self, metric_names: Sequence[str]):
        if not metric_names:
            raise ConfigurationError("probe schema needs at least one metric")
        self._metric_names = tuple(metric_names)
        fields = [FieldDef("resource_id", 16)]
        fields += [FieldDef(name, 32) for name in self._metric_names]
        self._probe_header = HeaderDef("probe", tuple(fields))

    @property
    def metric_names(self) -> tuple[str, ...]:
        return self._metric_names

    @property
    def probe_header(self) -> HeaderDef:
        return self._probe_header

    def build_parser(self) -> Parser:
        """A parser that accepts probe and plain data packets."""
        return Parser(
            [
                ParseState(
                    name="start",
                    header=ETHER_HEADER,
                    select_field="ethertype",
                    transitions={ETHERTYPE_PROBE: "probe"},
                    default=ACCEPT,
                ),
                ParseState(name="probe", header=self._probe_header),
            ],
            start="start",
        )

    def encode(
        self, resource_id: int, metrics: Mapping[str, int],
        src: int = 0, dst: int = 0,
    ) -> bytes:
        """Serialise a probe packet to wire bytes."""
        if set(metrics) != set(self._metric_names):
            raise ConfigurationError(
                f"metrics {sorted(metrics)} do not match probe schema "
                f"{sorted(self._metric_names)}"
            )
        packet = Packet()
        packet.push_header(
            "ether", {"dst": dst, "src": src, "ethertype": ETHERTYPE_PROBE}
        )
        packet.push_header(
            "probe",
            {"resource_id": resource_id, **metrics},
        )
        return packet.serialize({"ether": ETHER_HEADER, "probe": self._probe_header})

    def decode(self, packet: Packet) -> ProbeUpdate | None:
        """Extract the probe update from a parsed packet; None if not a probe."""
        if not packet.has_header("probe"):
            return None
        values = packet.header("probe")
        return ProbeUpdate(
            resource_id=values["resource_id"],
            metrics={name: values[name] for name in self._metric_names},
        )

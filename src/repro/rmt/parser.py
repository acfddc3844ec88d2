"""The programmable parser.

An RMT parser is a state machine: each state extracts one header type from
the byte stream and transitions on the value of one of the extracted fields
(e.g. an EtherType or protocol number).  Header processing is "the primary
job" of the RMT pipeline (section 3), and in Thanos it is what turns probe
packets into metric updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigurationError
from repro.rmt.packet import HeaderDef, Packet

__all__ = ["ParseState", "Parser"]

#: Transition target meaning "parsing is complete".
ACCEPT = "accept"


@dataclass(frozen=True)
class ParseState:
    """One parser state.

    Extracts ``header`` and then either accepts (``select_field`` is None)
    or transitions on the value of ``select_field``: ``transitions`` maps
    field values to next state names, with ``default`` used for unmatched
    values (``None`` default means unmatched values are a parse error).
    """

    name: str
    header: HeaderDef
    select_field: str | None = None
    transitions: Mapping[int, str] = field(default_factory=dict)
    default: str | None = None

    def __post_init__(self) -> None:
        if self.select_field is not None:
            self.header.field(self.select_field)  # validates existence
        elif self.transitions:
            raise ConfigurationError(
                f"state {self.name!r} has transitions but no select field"
            )


class Parser:
    """A programmable parser: states, a start state, and an extract loop."""

    def __init__(self, states: list[ParseState], start: str):
        self._states = {s.name: s for s in states}
        if len(self._states) != len(states):
            raise ConfigurationError("duplicate parser state names")
        if start not in self._states:
            raise ConfigurationError(f"unknown start state {start!r}")
        for s in states:
            targets = list(s.transitions.values())
            if s.default is not None:
                targets.append(s.default)
            for t in targets:
                if t != ACCEPT and t not in self._states:
                    raise ConfigurationError(
                        f"state {s.name!r} transitions to unknown state {t!r}"
                    )
        self._start = start

    def parse(self, data: bytes) -> Packet:
        """Run the state machine over ``data``; returns the parsed packet.

        The byte stream beyond the last parsed header is treated as payload
        and contributes only its length.
        """
        packet = Packet()
        state = self._states[self._start]
        offset = 0
        visited = 0
        while True:
            visited += 1
            if visited > len(self._states) + 1:
                raise ConfigurationError("parser loop: state cycle detected")
            values = state.header.unpack(data, offset)
            packet.push_header(state.header.name, values)
            offset += state.header.width_bytes
            if state.select_field is None:
                break
            key = values[state.select_field]
            target = state.transitions.get(key, state.default)
            if target is None:
                raise ConfigurationError(
                    f"state {state.name!r}: no transition for "
                    f"{state.select_field}={key}"
                )
            if target == ACCEPT:
                break
            state = self._states[target]
        packet.payload_bytes = len(data) - offset
        return packet

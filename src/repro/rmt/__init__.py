"""RMT substrate (sections 2.2 and 3).

The parts of the Reconfigurable Match Table architecture the model keeps:
the packet and parser the probe path runs on, and the register arrays an
RMT-only baseline is built from.

* :mod:`~repro.rmt.packet` — packets with header stacks and metadata;
* :mod:`~repro.rmt.parser` — the programmable parser (a state machine over
  serialised header bytes);
* :mod:`~repro.rmt.registers` — stateful register arrays with RMT's
  one-access-per-array-per-stage constraint;
* :mod:`~repro.rmt.probe` — probe-packet formats carrying remote resource
  metrics, and their extraction in the RMT pipeline (section 3, task 1).
"""

from repro.rmt.packet import HeaderDef, FieldDef, Packet
from repro.rmt.parser import Parser, ParseState
from repro.rmt.registers import RegisterArray
from repro.rmt.probe import ProbeCodec, ProbeUpdate

__all__ = [
    "HeaderDef",
    "FieldDef",
    "Packet",
    "Parser",
    "ParseState",
    "RegisterArray",
    "ProbeCodec",
    "ProbeUpdate",
]

"""Crossbars and Benes switching networks (section 5.3.2).

Each stage of the serial chain pipeline is fed by an ``nf x n`` crossbar
(n input lines, fan-out f, n Cell input ports).  Thanos implements these
crossbars as **multi-stage non-blocking Clos networks — Benes networks —
built out of 2x2 crossbar switches**, routed offline at compile time (the
routing problem is only hard for online switching, which never occurs here).

Two models live in this module:

* :class:`Crossbar` — the functional model used by the pipeline: a mapping
  from each output port to its source input line, validated against the
  port and line ranges and the fan-out bound (:func:`wiring_faults`).
  This is what a configured, non-blocking network *does*.
* :class:`BenesNetwork` — the structural model: a recursive Benes network of
  2x2 switches with an implementation of the classic looping algorithm to
  route any permutation, used to (a) demonstrate the non-blocking property
  the paper relies on and (b) count switches for the area model.  The
  network is rearrangeably non-blocking, so at the
  :meth:`~BenesNetwork.for_crossbar` size every wiring that keeps the
  :func:`wiring_faults` rules routes: a compile checks those rules and
  routes no network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, TypeVar

from repro.errors import ConfigurationError, RoutingError

__all__ = ["Crossbar", "BenesNetwork", "BenesConfig", "benes_switch_count",
           "wiring_faults"]

T = TypeVar("T")


def wiring_faults(wiring: Mapping[int, int], n_inputs: int, n_outputs: int,
                  fanout: int) -> Iterator[tuple[str, str, int | None]]:
    """The rules a crossbar wiring keeps, each stated here once: every port
    and source line in range (TH006), and no source line feeding more than
    ``fanout`` ports (TH005).  Yields ``(rule, message, port)``, ``port``
    naming an out-of-range port and None otherwise.  :class:`Crossbar`
    raises the first; :func:`repro.core.pipeline.config_faults` reads them
    per stage."""
    taps: dict[int, int] = {}
    for port, line in wiring.items():
        if not 0 <= port < n_outputs:
            yield ("TH006", f"Cell input port {port} out of range "
                            f"[0, {n_outputs})", port)
        if not 0 <= line < n_inputs:
            yield ("TH006", f"source line {line} out of range "
                            f"[0, {n_inputs})", None)
            continue
        taps[line] = taps.get(line, 0) + 1
    for line, count in sorted(taps.items()):
        if count > fanout:
            yield ("TH005", f"source line {line} feeds {count} ports, "
                            f"exceeding the fan-out bound f={fanout}", None)


class Crossbar:
    """Functional ``(n_inputs * fanout) x n_outputs`` non-blocking crossbar.

    ``wiring`` maps output port -> source input line.  An input line may
    feed at most ``fanout`` outputs; outputs absent from the map carry no
    signal (the pipeline models them as empty tables).  A wiring that
    breaks a :func:`wiring_faults` rule is refused: RoutingError for the
    fan-out bound, ConfigurationError for a range.
    """

    def __init__(self, n_inputs: int, n_outputs: int, fanout: int,
                 wiring: Mapping[int, int]):
        if n_inputs < 1 or n_outputs < 1:
            raise ConfigurationError("crossbar needs at least one input and output")
        if fanout < 1:
            raise ConfigurationError(f"fan-out must be >= 1, got {fanout}")
        for rule, message, _ in wiring_faults(wiring, n_inputs, n_outputs,
                                              fanout):
            raise (RoutingError if rule == "TH005"
                   else ConfigurationError)(message)
        self._n_inputs = n_inputs
        self._n_outputs = n_outputs
        self._fanout = fanout
        self._wiring = dict(wiring)

    @property
    def n_inputs(self) -> int:
        return self._n_inputs

    @property
    def n_outputs(self) -> int:
        return self._n_outputs

    @property
    def fanout(self) -> int:
        return self._fanout

    @property
    def wiring(self) -> dict[int, int]:
        return dict(self._wiring)

    def apply(self, inputs: Sequence[T], idle: T) -> list[T]:
        """Propagate input signals to output ports; unwired ports get ``idle``."""
        if len(inputs) != self._n_inputs:
            raise ConfigurationError(
                f"expected {self._n_inputs} input signals, got {len(inputs)}"
            )
        return [
            inputs[self._wiring[port]] if port in self._wiring else idle
            for port in range(self._n_outputs)
        ]


@dataclass
class BenesConfig:
    """Switch settings of one (recursive) Benes network.

    For ``size == 2`` the network is a single 2x2 switch held in
    ``cross_in[0]``.  For larger sizes, ``cross_in``/``cross_out`` hold the
    input/output switch columns and ``top``/``bottom`` the two half-size
    subnetworks.
    """

    size: int
    cross_in: list[bool]
    cross_out: list[bool]
    top: "BenesConfig | None" = None
    bottom: "BenesConfig | None" = None

    def switch_count(self) -> int:
        """Number of 2x2 switches configured (set or not) in this network."""
        if self.size == 2:
            return 1
        assert self.top is not None and self.bottom is not None
        return (
            len(self.cross_in)
            + len(self.cross_out)
            + self.top.switch_count()
            + self.bottom.switch_count()
        )


class BenesNetwork:
    """A Benes network over ``size`` terminals (``size`` = power of two >= 2)."""

    def __init__(self, size: int):
        if size < 2 or size & (size - 1):
            raise ConfigurationError(
                f"Benes network size must be a power of two >= 2, got {size}"
            )
        self._size = size

    @property
    def size(self) -> int:
        return self._size

    @property
    def depth(self) -> int:
        """Number of switch columns: 2*log2(size) - 1."""
        return 2 * int(math.log2(self._size)) - 1

    def switch_count(self) -> int:
        """Total 2x2 switches: (size/2) * depth."""
        return (self._size // 2) * self.depth

    # -- routing (the looping algorithm) --------------------------------------

    def route(self, permutation: Sequence[int]) -> BenesConfig:
        """Compute switch settings realising ``permutation``.

        ``permutation[i]`` is the output terminal that input terminal ``i``
        must reach.  Any permutation is routable — the non-blocking property
        of the Benes network.
        """
        perm = list(permutation)
        if sorted(perm) != list(range(self._size)):
            raise RoutingError(
                f"not a permutation of [0, {self._size}): {perm}"
            )
        return self._route(perm)

    @staticmethod
    def _route(perm: list[int]) -> BenesConfig:
        n = len(perm)
        if n == 2:
            return BenesConfig(size=2, cross_in=[perm[0] == 1], cross_out=[])

        # Looping algorithm: 2-colour the terminals so that the two inputs of
        # every input switch take different subnetworks, and the two outputs
        # of every output switch are fed from different subnetworks.  The
        # constraint graph (input-sibling and output-sibling edges) is a
        # disjoint union of even cycles, so alternating colours along each
        # cycle always succeeds.
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        colour: list[int | None] = [None] * n  # per input terminal: 0=top, 1=bottom
        for start in range(n):
            if colour[start] is not None:
                continue
            current, c = start, 0
            while colour[current] is None:
                colour[current] = c
                # Output sibling: the input feeding the other port of the
                # output switch our current input lands on must use the
                # other subnetwork.
                out_sibling = perm[current] ^ 1
                peer = inv[out_sibling]
                if colour[peer] is None:
                    colour[peer] = 1 - c
                # Input sibling of that peer continues the cycle with the
                # same colour as `current`'s complement's complement.
                current = peer ^ 1
                c = 1 - colour[peer]

        half = n // 2
        cross_in = [colour[2 * i] == 1 for i in range(half)]
        top_perm = [0] * half
        bot_perm = [0] * half
        cross_out = [False] * half
        for i in range(n):
            sub_in = i // 2
            sub_out = perm[i] // 2
            if colour[i] == 0:
                top_perm[sub_in] = sub_out
            else:
                bot_perm[sub_in] = sub_out
            # Output switch `sub_out` is crossed when the even output is fed
            # from the bottom subnetwork.
            if perm[i] % 2 == 0:
                cross_out[sub_out] = colour[i] == 1
        return BenesConfig(
            size=n,
            cross_in=cross_in,
            cross_out=cross_out,
            top=BenesNetwork._route(top_perm),
            bottom=BenesNetwork._route(bot_perm),
        )

    # -- evaluation -------------------------------------------------------------

    def apply(self, inputs: Sequence[T], config: BenesConfig) -> list[T]:
        """Propagate signals through a configured network."""
        if len(inputs) != self._size:
            raise ConfigurationError(
                f"expected {self._size} signals, got {len(inputs)}"
            )
        if config.size != self._size:
            raise ConfigurationError(
                f"config is for size {config.size}, network is size {self._size}"
            )
        return self._apply(list(inputs), config)

    @staticmethod
    def _apply(signals: list[T], config: BenesConfig) -> list[T]:
        n = len(signals)
        if n == 2:
            if config.cross_in[0]:
                return [signals[1], signals[0]]
            return list(signals)
        half = n // 2
        top_in: list[T] = []
        bot_in: list[T] = []
        for i in range(half):
            a, b = signals[2 * i], signals[2 * i + 1]
            if config.cross_in[i]:
                a, b = b, a
            top_in.append(a)
            bot_in.append(b)
        assert config.top is not None and config.bottom is not None
        top_out = BenesNetwork._apply(top_in, config.top)
        bot_out = BenesNetwork._apply(bot_in, config.bottom)
        out: list[T] = []
        for i in range(half):
            a, b = top_out[i], bot_out[i]
            if config.cross_out[i]:
                a, b = b, a
            out.extend((a, b))
        return out

    # -- fan-out mappings ----------------------------------------------------------

    @classmethod
    def for_crossbar(cls, n_lines: int, fanout: int) -> "BenesNetwork":
        """The Benes network backing an ``(n_lines * fanout) x n_lines`` crossbar.

        Inputs are replicated ``fanout`` times, and the terminal count is
        padded to the next power of two.
        """
        terminals = max(2, n_lines * fanout)
        size = 1 << math.ceil(math.log2(terminals))
        return cls(size)

    def route_crossbar(
        self, crossbar: Crossbar
    ) -> tuple[BenesConfig, list[int | None]]:
        """Realise a crossbar wiring on this network.

        Returns the switch configuration and the terminal plan: entry ``t``
        of the plan names the input line whose signal is presented at
        network input terminal ``t`` (``None`` for idle terminals).  Input
        line ``i`` occupies terminals ``i*fanout .. i*fanout + fanout - 1``
        (its replicas); output port ``p`` is network output terminal ``p``.
        """
        needed = crossbar.n_inputs * crossbar.fanout
        if needed > self._size or crossbar.n_outputs > self._size:
            raise RoutingError(
                f"crossbar ({crossbar.n_inputs}x{crossbar.n_outputs}, "
                f"f={crossbar.fanout}) does not fit a size-{self._size} network"
            )
        plan: list[int | None] = [None] * self._size
        for line in range(crossbar.n_inputs):
            for r in range(crossbar.fanout):
                plan[line * crossbar.fanout + r] = line

        # Assign each wired output a distinct replica terminal of its source.
        replica_next = [0] * crossbar.n_inputs
        perm: list[int | None] = [None] * self._size  # input terminal -> output
        for port in sorted(crossbar.wiring):
            line = crossbar.wiring[port]
            r = replica_next[line]
            replica_next[line] += 1
            terminal = line * crossbar.fanout + r
            perm[terminal] = port
        # Complete to a full permutation with the unused terminals/outputs.
        used_outputs = set(crossbar.wiring)
        free_outputs = (o for o in range(self._size) if o not in used_outputs)
        for t in range(self._size):
            if perm[t] is None:
                perm[t] = next(free_outputs)
        config = self.route([p for p in perm if p is not None])
        return config, plan

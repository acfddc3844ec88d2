"""Fault injection for the Thanos reproduction.

:mod:`repro.faults.injector` holds the deterministic, seeded
:class:`FaultInjector` driving every fault class a contract is checked
against, with every injection counted through ``repro.obs``
(``faults_injected_total{kind=...}``), and :class:`SimulatedCrash`, the
process death an armed crash point raises.

The graph-DB probe loop's retry schedule is two constants in
:mod:`repro.graphdb.cluster`, beside the only loop that uses it.
"""

from repro.faults.injector import FaultEvent, FaultInjector, SimulatedCrash

__all__ = ["FaultEvent", "FaultInjector", "SimulatedCrash"]

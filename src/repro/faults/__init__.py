"""Fault injection and self-healing for the Thanos reproduction.

The subsystem has three parts:

* :mod:`repro.faults.ecc` — a SECDED (single-error-correct, double-error-
  detect) Hamming code over the SMBM's 64-bit stored metric words;
* :mod:`repro.faults.scrub` — :class:`ECCStore` keeps check words in
  lockstep with committed table writes, and :class:`Scrubber` sweeps the
  table in the background, correcting SEU bit-flips in place (which bumps
  the table version and so invalidates every version-keyed cache) and
  quarantining rows it cannot correct;
* :mod:`repro.faults.injector` — the deterministic, seeded
  :class:`FaultInjector` driving all fault classes, with every injection
  counted through ``repro.obs`` (``faults_injected_total{kind=...}``).

The graph-DB probe loop's retry schedule is two constants in
:mod:`repro.graphdb.cluster`, beside the only loop that uses it.
"""

from repro.faults.ecc import ECCResult, ecc_check_word, ecc_decode
from repro.faults.injector import FaultEvent, FaultInjector, SimulatedCrash
from repro.faults.scrub import ECCStore, Scrubber

__all__ = [
    "ECCResult",
    "ecc_check_word",
    "ecc_decode",
    "ECCStore",
    "Scrubber",
    "FaultEvent",
    "FaultInjector",
    "SimulatedCrash",
]

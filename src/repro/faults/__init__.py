"""Fault injection and self-healing for the Thanos reproduction.

The subsystem has four parts:

* :mod:`repro.faults.ecc` — a SECDED (single-error-correct, double-error-
  detect) Hamming code over the SMBM's 64-bit stored metric words;
* :mod:`repro.faults.scrub` — :class:`ECCStore` keeps check words in
  lockstep with committed table writes, and :class:`Scrubber` sweeps the
  table in the background, correcting SEU bit-flips in place (which bumps
  the table version and so invalidates every version-keyed cache);
* :mod:`repro.faults.retry` — the probe retry/backoff schedule
  (:class:`RetryPolicy`) behind :class:`~repro.errors.RetryExhausted`;
* :mod:`repro.faults.injector` — the deterministic, seeded
  :class:`FaultInjector` driving all fault classes, with every injection
  counted through ``repro.obs`` (``faults_injected_total{kind=...}``).
"""

from repro.faults.ecc import ECCResult, ecc_check_word, ecc_decode
from repro.faults.injector import FaultEvent, FaultInjector, SimulatedCrash
from repro.faults.retry import RetryPolicy
from repro.faults.scrub import ECCStore, Scrubber

__all__ = [
    "ECCResult",
    "ecc_check_word",
    "ecc_decode",
    "ECCStore",
    "Scrubber",
    "RetryPolicy",
    "FaultEvent",
    "FaultInjector",
    "SimulatedCrash",
]

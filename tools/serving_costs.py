#!/usr/bin/env python3
"""Time the batched switch's serving layer, the work around the policy:
``PYTHONPATH=src python tools/serving_costs.py [--seed 1] [--repeat 7]``.

Four tenants share one switch, each with a full 64-row table and a
stateless ``min(cpu)`` policy.  It prints, in microseconds:

* ``classify`` — the batch edge's one pass
  (:func:`repro.tenancy.demux.classify`) per packet, on a 1024-packet
  batch of full-table requests labelled round-robin, and on the same batch
  with 10 % of it parsed probes;
* ``run`` — one owner's run of L unmasked rows through
  ``repro.switch.thanos_switch._serve_run`` at a memo hit (one answer for
  the run, then the write-back onto every row), for L = 1, 9 and 256, per
  run and per row;
* the least-squares line through those three: the fixed cost per run and
  the write-back cost per row.

Each figure is the best of ``--repeat`` timed loops.  Everything it calls
has the same name and signature on older checkouts, so running it with
``PYTHONPATH`` at either checkout's ``src`` puts the two side by side.
Prints one Markdown table.
"""

from __future__ import annotations

import argparse
import random
import time

from repro.core.pipeline import PipelineParams
from repro.core.policy import Policy, TableRef, min_of
from repro.rmt.packet import META_TENANT, Packet
from repro.rmt.probe import ProbeCodec
from repro.serving.backend import BatchedBackend, TableWrite
from repro.switch import thanos_switch
from repro.switch.filter_module import META_FILTER_REQUEST
from repro.tenancy.demux import classify
from repro.tenancy.manager import TenantManager, TenantSpec

METRICS = ("cpu", "mem")
TENANTS = ("t0", "t1", "t2", "t3")
ROWS = 64
BATCH = 1024
RUN_LENGTHS = (1, 9, 256)
#: Rows served per timed loop of one run length.
ROWS_PER_LOOP = 20_000


def best_us(run, repeat: int, calls: int) -> float:
    """Best per-call time of ``repeat`` runs of ``run()`` (``calls`` calls
    each), in µs."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter_ns()
        run()
        best = min(best, (time.perf_counter_ns() - start) / calls)
    return best / 1e3


def backend(rng: random.Random) -> BatchedBackend:
    manager = TenantManager(METRICS, PipelineParams(n=8),
                            smbm_capacity=ROWS * len(TENANTS))
    served = BatchedBackend(manager)
    for name in TENANTS:
        served.program_tenant(TenantSpec(
            name, Policy(min_of(TableRef(), "cpu"), name="least-cpu"),
            smbm_quota=ROWS))
        served.write_batch([
            TableWrite(name, rid, {m: rng.randrange(1000) for m in METRICS})
            for rid in range(ROWS)])
    return served


def request(name: str) -> Packet:
    return Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: name})


def batches(rng: random.Random) -> tuple[list[Packet], list[Packet]]:
    """The all-request batch, and the same with every tenth packet a
    parsed probe."""
    reads = [request(TENANTS[i % len(TENANTS)]) for i in range(BATCH)]
    codec = ProbeCodec(METRICS)
    parser = codec.build_parser()
    mixed = list(reads)
    for i in range(0, BATCH, 10):
        probe = parser.parse(codec.encode(
            rng.randrange(ROWS), {m: rng.randrange(1000) for m in METRICS}))
        probe.metadata[META_TENANT] = TENANTS[i % len(TENANTS)]
        mixed[i] = probe
    return reads, mixed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    served = backend(rng)
    manager = served.manager
    decode = ProbeCodec(METRICS).decode
    print("| cost | µs |")
    print("|---|---|")
    for label, packets in zip(("requests", "10 % probes"), batches(rng)):
        cost = best_us(lambda p=packets: [classify(p, decode, manager)
                                          for _ in range(20)],
                       args.repeat, 20 * BATCH)
        print(f"| classify per packet, {label} | {cost:.3f} |")
    module = manager.get(TENANTS[0]).module
    per_run = []
    for length in RUN_LENGTHS:
        rows = [request(TENANTS[0]) for _ in range(length)]
        masks: list[int | None] = [None] * length
        thanos_switch._serve_run(module, rows, masks)  # the memo's entry
        calls = ROWS_PER_LOOP // length

        def serve(rows=rows, masks=masks, calls=calls):
            for _ in range(calls):
                thanos_switch._serve_run(module, rows, masks)

        cost = best_us(serve, args.repeat, calls)
        per_run.append(cost)
        print(f"| run of {length}, per run | {cost:.3f} |")
        print(f"| run of {length}, per row | {cost / length:.3f} |")
    # Least squares: cost(L) = fixed + L * per_row.
    n = len(RUN_LENGTHS)
    mean_l = sum(RUN_LENGTHS) / n
    mean_c = sum(per_run) / n
    slope = (sum((length - mean_l) * (cost - mean_c)
                 for length, cost in zip(RUN_LENGTHS, per_run))
             / sum((length - mean_l) ** 2 for length in RUN_LENGTHS))
    print(f"| fixed cost per run | {mean_c - slope * mean_l:.3f} |")
    print(f"| write-back per row | {slope:.3f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The common shape of every workload, generated from one seed.

Four tenants ``t0..t3`` share one pipeline (``PipelineParams(n=8)``, one
Cell column each) and one 4096-row SMBM budget; every tenant's table is
full at N=1024, the ROADMAP headline size.  Everything random here —
table contents, candidate masks, probe placement, control-op plans — is
drawn from ``random.Random(f"{seed}/{stream}")``, so one ``--seed`` fixes
every input and the program under test sees only the generated inputs.
"""

from __future__ import annotations

import random

from repro.core.operators import RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Policy,
    TableRef,
    intersection,
    max_of,
    min_of,
    predicate,
    round_robin,
    union,
)
from repro.engine.batch import META_FILTER_INPUT, META_FILTER_REQUEST
from repro.rmt.packet import META_TENANT, Packet
from repro.rmt.probe import ProbeCodec
from repro.serving import TableWrite
from repro.tenancy.manager import TenantManager, TenantSpec

METRICS = ("cpu", "mem", "bw")
#: Exclusive upper bound of each metric's generated values.
VALUE_RANGE = {"cpu": 100, "mem": 64, "bw": 100}
TENANTS = ("t0", "t1", "t2", "t3")
ROWS = 1024
BATCH = 1024
#: Distinct pre-generated batches a data workload cycles through, so only
#: ``process_batch`` sits in the timed region.
POOL_BATCHES = 16
#: Share of a ``probe_mix`` batch that is probe packets.
PROBE_SHARE = 0.1


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent generator per input stream of one seed."""
    return random.Random(f"{seed}/{stream}")


def random_metrics(rng: random.Random) -> dict[str, int]:
    return {name: rng.randrange(VALUE_RANGE[name]) for name in METRICS}


def policies(*, stateful_t3: bool = False) -> dict[str, Policy]:
    """One policy per tenant; all four admit with ``columns=1``.

    ``t0`` is the Fig. 14 shape, ``t1`` the cheapest possible plan, ``t2``
    the routing top-x shape, ``t3`` a union under a selector — or, for the
    probe workload, a stateful round-robin that no batch tier can serve.
    """
    table = TableRef()
    t3 = (
        round_robin(TableRef(), "bw") if stateful_t3
        else min_of(union(predicate(TableRef(), "cpu", RelOp.LT, 20),
                          predicate(TableRef(), "mem", RelOp.GT, 48)), "bw")
    )
    roots = {
        "t0": min_of(intersection(predicate(table, "cpu", RelOp.LT, 70),
                                  predicate(table, "mem", RelOp.GT, 16)),
                     "cpu"),
        "t1": predicate(TableRef(), "cpu", RelOp.LT, 50),
        "t2": min_of(intersection(max_of(TableRef(), "bw", k=3),
                                  max_of(TableRef(), "mem", k=3)), "cpu"),
        "t3": t3,
    }
    return {name: Policy(root, name=f"e2e-{name}")
            for name, root in roots.items()}


def tenant_specs(*, codegen: tuple[str, ...] = (),
                 stateful_t3: bool = False) -> list[TenantSpec]:
    return [
        TenantSpec(name, policy, smbm_quota=ROWS, codegen=name in codegen)
        for name, policy in policies(stateful_t3=stateful_t3).items()
    ]


def new_manager() -> TenantManager:
    return TenantManager(METRICS, PipelineParams(n=8),
                         smbm_capacity=ROWS * len(TENANTS))


def table_writes(seed: int) -> list[TableWrite]:
    """The writes that fill every tenant's table."""
    rng = rng_for(seed, "table")
    return [TableWrite(name, rid, random_metrics(rng))
            for name in TENANTS for rid in range(ROWS)]


def build_backend(backend_cls, seed: int, **spec_kwargs):
    """A backend with all four tenants admitted and every table full."""
    backend = backend_cls(new_manager())
    for spec in tenant_specs(**spec_kwargs):
        backend.program_tenant(spec)
    backend.write_batch(table_writes(seed))
    return backend


# -- packet pools --------------------------------------------------------------------


def _request(index: int, mask: int | None = None) -> Packet:
    """A filter request; tenants interleave round-robin by position."""
    metadata = {META_FILTER_REQUEST: 1,
                META_TENANT: TENANTS[index % len(TENANTS)]}
    if mask is not None:
        metadata[META_FILTER_INPUT] = mask
    return Packet(metadata=metadata)


def uniform_pool(seed: int) -> list[list[Packet]]:
    """Full-table requests only (the seed changes nothing here)."""
    return [[_request(i) for i in range(BATCH)] for _ in range(POOL_BATCHES)]


def masked_pool(seed: int) -> list[list[Packet]]:
    """Every packet carries a candidate mask: even rows dense (each bit
    set with p=0.5), odd rows sparse (16 of the 1024 rows)."""
    rng = rng_for(seed, "masks")

    def mask(index: int) -> int:
        if index % 2 == 0:
            return rng.getrandbits(ROWS)
        bits = 0
        for rid in rng.sample(range(ROWS), 16):
            bits |= 1 << rid
        return bits

    return [[_request(i, mask(i)) for i in range(BATCH)]
            for _ in range(POOL_BATCHES)]


def probe_pool(seed: int) -> list[list[Packet]]:
    """Uniform requests with parsed probe packets at random positions —
    wire bytes through the real parser, random row and values.  The seed
    moves *where* probes land, not how much work a batch is: every batch
    has exactly :data:`PROBE_SHARE` probes, spread evenly over the tenants."""
    rng = rng_for(seed, "probes")
    codec = ProbeCodec(METRICS)
    parser = codec.build_parser()
    probes = round(BATCH * PROBE_SHARE)

    def batch() -> list[Packet]:
        packets = [_request(i) for i in range(BATCH)]
        owners = [TENANTS[j % len(TENANTS)] for j in range(probes)]
        rng.shuffle(owners)
        for position, owner in zip(rng.sample(range(BATCH), probes), owners):
            probe = parser.parse(
                codec.encode(rng.randrange(ROWS), random_metrics(rng))
            )
            probe.metadata[META_TENANT] = owner
            packets[position] = probe
        return packets

    return [batch() for _ in range(POOL_BATCHES)]


# -- control-op plans ----------------------------------------------------------------


def op_plan(seed: int, tenant: str,
            count: int) -> list[tuple[int, dict[str, int] | None]]:
    """``count`` ops ``(resource_id, metrics)`` for one tenant.

    10% are ``remove_resource`` (``metrics=None``) of a present row, the
    rest ``update_resource`` — half of those re-add the oldest removed row
    while one is outstanding, and the tail re-adds whatever is still
    removed, so the table ends full again."""
    rng = rng_for(seed, f"ops/{tenant}")
    removed: list[int] = []
    plan: list[tuple[int, dict[str, int] | None]] = []
    while len(plan) + len(removed) < count:
        if rng.random() < 0.1 and len(plan) + len(removed) + 2 <= count:
            rid = rng.randrange(ROWS)
            if rid not in removed:
                removed.append(rid)
                plan.append((rid, None))
                continue
        if removed and rng.random() < 0.5:
            rid = removed.pop(0)
        else:
            rid = rng.randrange(ROWS)
            if rid in removed:
                removed.remove(rid)
        plan.append((rid, random_metrics(rng)))
    plan.extend((rid, random_metrics(rng)) for rid in removed)
    return plan

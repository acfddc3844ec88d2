"""Hitless hot-swap properties: no lost packets, no mixed plan.

A hot-swap concurrent with a packet stream must be invisible except for
the policy change itself:

* **zero loss** — every requesting packet in the stream gets a
  ``META_FILTER_OUTPUT``, whether it hit the old plan or the new one;
* **no mixed plan** — the ``META_FILTER_EPOCH`` watermark stamped on
  each packet is monotone across the stream, and every packet's output
  matches the oracle of *exactly* the plan its epoch names: old-epoch
  packets match the old policy's solo trace, new-epoch packets the new
  policy's.  A batch additionally never straddles epochs.

Both the scalar (``process``) and batched (``process_batch``) paths are
covered.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import Policy, TableRef, max_of, min_of, predicate
from repro.rmt.packet import META_TENANT, Packet
from repro.switch.filter_module import (
    META_FILTER_EPOCH,
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    FilterModule,
)
from repro.switch.thanos_switch import ThanosSwitch
from repro.tenancy import TenantManager, TenantSpec

PARAMS = PipelineParams(n=8)
METRICS = ("q", "load")
QUOTA = 8


def _policies() -> list[Policy]:
    table = TableRef()
    return [
        Policy(min_of(table, "q"), name="min-q"),
        Policy(max_of(table, "load"), name="max-load"),
        Policy(predicate(table, "q", RelOp.LT, 500), name="q-small"),
    ]


@st.composite
def scenarios(draw):
    rows = draw(st.lists(
        st.tuples(st.integers(0, 999), st.integers(0, 999)),
        min_size=1, max_size=QUOTA,
    ))
    n_packets = draw(st.integers(2, 20))
    swap_at = draw(st.integers(0, n_packets))
    old = draw(st.integers(0, 2))
    new = draw(st.integers(0, 2).filter(lambda i: i != old))
    return rows, n_packets, swap_at, old, new


def _expected(rows, policy_index: int) -> int:
    """The solo-module oracle for one plan over a fixed table."""
    solo = FilterModule(
        QUOTA, METRICS, _policies()[policy_index], PARAMS, lfsr_seed=1,
    )
    for rid, (q, load) in enumerate(rows):
        solo.update_resource(rid, {"q": q, "load": load})
    return solo.evaluate().value


def _env(rows, policy_index: int):
    mgr = TenantManager(METRICS, PARAMS, smbm_capacity=2 * QUOTA)
    mgr.admit(TenantSpec(
        "a", _policies()[policy_index], smbm_quota=QUOTA, columns=2,
    ))
    for rid, (q, load) in enumerate(rows):
        mgr.get("a").module.update_resource(rid, {"q": q, "load": load})
    return mgr, ThanosSwitch(mgr)


def _packet() -> Packet:
    return Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: "a"})


def _check_stream(packets, swap_epoch: int, want_old: int, want_new: int):
    """Zero loss + monotone watermark + per-epoch oracle match."""
    epochs = [p.metadata[META_FILTER_EPOCH] for p in packets]  # KeyError = loss
    assert epochs == sorted(epochs), "epoch watermark went backwards"
    assert set(epochs) <= {0, swap_epoch}
    for packet in packets:
        out = packet.metadata[META_FILTER_OUTPUT]  # KeyError = lost packet
        want = want_old if packet.metadata[META_FILTER_EPOCH] == 0 else want_new
        assert out == want, "output from a plan other than the epoch's"


@settings(max_examples=40)
@given(scenarios())
def test_hot_swap_scalar_stream_is_hitless(scenario):
    rows, n_packets, swap_at, old, new = scenario
    want_old, want_new = _expected(rows, old), _expected(rows, new)
    mgr, switch = _env(rows, old)

    packets = []
    swap_epoch = 0
    for i in range(n_packets):
        if i == swap_at:
            swap_epoch = mgr.hot_swap("a", _policies()[new])
        packet = _packet()
        switch.process_batch([packet])
        packets.append(packet)
    if swap_at == n_packets:
        swap_epoch = mgr.hot_swap("a", _policies()[new])

    assert swap_epoch == 1
    _check_stream(packets, swap_epoch, want_old, want_new)
    # The split lands exactly where the swap did.
    old_count = sum(1 for p in packets
                    if p.metadata[META_FILTER_EPOCH] == 0)
    assert old_count == min(swap_at, n_packets)


@settings(max_examples=40)
@given(scenarios(), st.integers(1, 6))
def test_hot_swap_batched_stream_is_hitless(scenario, batch_size):
    """Same contract on process_batch; a single batch never mixes plans."""
    rows, n_packets, swap_at, old, new = scenario
    want_old, want_new = _expected(rows, old), _expected(rows, new)
    mgr, switch = _env(rows, old)

    batches = []
    stream = [_packet() for _ in range(n_packets)]
    for start in range(0, n_packets, batch_size):
        batches.append(stream[start:start + batch_size])

    swap_epoch = 0
    sent = 0
    swapped = False
    for batch in batches:
        # The swap fires at the first batch boundary at/after ``swap_at``
        # — batches are atomic units, so that is the soonest a concurrent
        # swap can take effect on this path.
        if not swapped and sent >= swap_at:
            swap_epoch = mgr.hot_swap("a", _policies()[new])
            swapped = True
        switch.process_batch(batch)
        sent += len(batch)
        batch_epochs = {p.metadata[META_FILTER_EPOCH] for p in batch}
        assert len(batch_epochs) == 1, "one batch served by two plans"
    if not swapped:
        swap_epoch = mgr.hot_swap("a", _policies()[new])

    assert swap_epoch == 1
    _check_stream(stream, swap_epoch, want_old, want_new)

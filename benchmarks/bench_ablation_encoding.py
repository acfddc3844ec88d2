"""Ablation: bit-vector table encoding vs row-copy tables between units.

Section 5.2.1's design choice: tables flowing between filter units are
encoded as N-bit vectors indexed by resource id, not as copies of rows.
This turns every BFPU set operation into one bitwise logic operation and
makes the inter-unit buses N bits wide instead of N x (id + M metrics)
bits.  The bench measures the software cost of both encodings for the same
chain of set operations and prints the hardware bus-width comparison.
"""

import random

from benchmarks.report import emit, format_table

N = 256
M_METRICS = 4
METRIC_BITS = 32
ID_BITS = 16


def _sets(seed=8):
    rng = random.Random(seed)
    a = set(rng.sample(range(N), N // 2))
    b = set(rng.sample(range(N), N // 2))
    c = set(rng.sample(range(N), N // 3))
    return a, b, c


def test_bitvector_encoding_chain(benchmark):
    a, b, c = _sets()
    # The id-mask ints the filter units pass between them.
    va, vb, vc = (sum(1 << rid for rid in s) for s in (a, b, c))

    def chain():
        return (va & vb) | (va & ~vc)

    out = benchmark(chain)
    assert out == sum(1 << rid for rid in (a & b) | (a - c))


def test_row_copy_encoding_chain(benchmark):
    a, b, c = _sets()
    # Row-copy encoding: each table is a dict of full rows, set operations
    # must hash and copy rows.
    rng = random.Random(9)
    rows = {
        rid: {f"m{i}": rng.randrange(1 << METRIC_BITS) for i in range(M_METRICS)}
        for rid in range(N)
    }
    ta = {rid: rows[rid] for rid in a}
    tb = {rid: rows[rid] for rid in b}
    tc = {rid: rows[rid] for rid in c}

    def chain():
        inter = {rid: row for rid, row in ta.items() if rid in tb}
        diff = {rid: row for rid, row in ta.items() if rid not in tc}
        return {**inter, **diff}

    out = benchmark(chain)
    assert set(out) == (a & b) | (a - c)

    bitvec_bus = N
    rowcopy_bus = N * (ID_BITS + M_METRICS * METRIC_BITS)
    emit("ablation_encoding", format_table(
        "Ablation - inter-unit table encoding "
        f"(N={N}, M={M_METRICS} metrics of {METRIC_BITS} bits)",
        ["encoding", "bus width (bits)", "BFPU op"],
        [
            ["bit vector", f"{bitvec_bus}", "1-cycle bitwise logic"],
            ["row copy", f"{rowcopy_bus}",
             f"{rowcopy_bus // bitvec_bus}x wider mux + compare network"],
        ],
    ))

"""Table 5: the evaluation's example policies expressed as Thanos chains.

Compiles all five Table 5 policies onto the paper's default pipeline
(n=4, k=4, f=2, K=4), prints each policy's hardware configuration (the
Figure 14 style mapping), and times compilation plus one evaluation each.
"""

import random

from benchmarks.report import emit
from repro.core.compiler import PolicyCompiler
from repro.core.pipeline import PipelineParams
from repro.core.smbm import SMBM
from repro.policies.table5 import TABLE5_POLICIES, build_table5_policy

DEFAULTS = PipelineParams(n=4, k=4, f=2, chain_length=4)

#: SMBM schema each Table 5 policy operates over.
SCHEMAS = {
    "ecmp-random": ("util", "queue", "loss"),
    "conga-min-util": ("util", "queue", "loss"),
    "l4lb-resource": ("cpu", "mem", "bw"),
    "routing-top-x": ("util", "queue", "loss"),
    "drill": ("queue",),
}


def _compile_all():
    compiled = {}
    for key in TABLE5_POLICIES:
        compiled[key] = PolicyCompiler(DEFAULTS).compile(
            build_table5_policy(key))
    return compiled


def _report(compiled) -> str:
    sections = ["Table 5 - policies mapped onto the default pipeline "
                "(n=4, k=4, f=2, K=4)", "=" * 66]
    for key, cp in compiled.items():
        sections.append("")
        sections.append(f"--- {key} ---")
        sections.append(cp.describe())
    return "\n".join(sections)


def _smbm_for(key, seed=6):
    rng = random.Random(seed)
    schema = SCHEMAS[key]
    smbm = SMBM(16, schema)
    for rid in range(12):
        smbm.add(rid, {name: rng.randrange(1000) for name in schema})
    return smbm


def test_table5_compile_all(benchmark):
    compiled = benchmark(_compile_all)
    emit("table5_policies", _report(compiled))
    assert set(compiled) == set(TABLE5_POLICIES)


def test_table5_evaluate_each(benchmark):
    compiled = _compile_all()
    tables = {key: _smbm_for(key) for key in compiled}

    def evaluate_all():
        return {key: cp.evaluate(tables[key]) for key, cp in compiled.items()}

    outs = benchmark(evaluate_all)
    # Selector policies produce singletons; every output stays in-table.
    for key, out in outs.items():
        assert set(out.indices()) <= set(range(12))
        if key != "ecmp-random":
            assert not out.is_empty()

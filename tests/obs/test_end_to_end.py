"""End-to-end observability: a real registry installed around real pipeline
components, validated through the exporter output (the acceptance path:
SMBM rebuild counters, memo hit/miss counters, per-cell activations)."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.compiler import PolicyCompiler
from repro.core.operators import RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import Policy, TableRef, min_of, predicate
from repro.switch.filter_module import FilterModule

CAP = 16
METRICS = ("a", "b")


def _run_workload(reg: obs.MetricsRegistry) -> FilterModule:
    module = FilterModule(
        CAP, METRICS,
        Policy(predicate(TableRef(), "a", RelOp.LT, 8), name="e2e"),
    )
    for rid in range(8):
        module.update_resource(rid, {"a": rid * 2, "b": rid})
    module.evaluate()           # miss: runs the pipeline
    module.evaluate()           # hit: served from the version memo
    module.update_resource(0, {"a": 15, "b": 0})
    module.evaluate()           # miss again: write invalidated the memo
    return module


class TestExporterEndToEnd:
    def test_snapshot_carries_the_acceptance_series(self):
        with obs.use_registry() as reg:
            module = _run_workload(reg)
            snap = obs.snapshot(reg)
        counters = snap["counters"]

        # SMBM write and rebuild accounting.
        assert counters['smbm_writes_total{op="add"}'] == 9
        assert counters['smbm_writes_total{op="delete"}'] == 1  # the update
        # One full build (first read of "a"); the update before the third
        # evaluation reached that index as one in-place move.
        assert counters["smbm_index_rebuilds_total"] == 1
        assert counters["smbm_index_patches_total"] == 1

        # Memoization accounting: miss, hit, miss after the write.
        assert counters['filter_evaluations_total{policy="e2e"}'] == 3
        assert counters['filter_memo_hits_total{policy="e2e"}'] == 1
        assert counters['filter_memo_misses_total{policy="e2e"}'] == 2

        # Per-cell pipeline accounting: the static plan's activations,
        # bypasses and skips all scale with packets evaluated.
        activations = {
            k: v for k, v in counters.items()
            if k.startswith("pipeline_cell_activations_total{")
        }
        assert activations, "expected per-cell activation series"
        assert all(v >= 1 for v in activations.values())
        assert 'cell="' in next(iter(activations))
        assert 'stage="' in next(iter(activations))
        # Two pipeline runs: the two memo misses.
        assert counters["pipeline_packets_total"] == 2

        # The compile span fired (module construction compiles the policy).
        assert counters['span_calls_total{span="policy_compile"}'] >= 1
        assert counters['span_cycles_total{span="policy_compile"}'] >= 1

        # Evaluation latency histogram observed once per pipeline run.
        hist = snap["histograms"]['filter_eval_ns{policy="e2e"}']
        assert hist["count"] == 2
        assert hist["sum"] > 0

    def test_prometheus_text_carries_the_acceptance_series(self):
        with obs.use_registry() as reg:
            module = _run_workload(reg)
            text = obs.to_prometheus(reg)
        assert module is not None
        lines = text.splitlines()
        assert 'smbm_writes_total{op="add"} 9' in lines
        assert 'filter_memo_hits_total{policy="e2e"} 1' in lines
        assert 'filter_memo_misses_total{policy="e2e"} 2' in lines
        assert "# TYPE smbm_index_rebuilds_total counter" in lines
        assert "# TYPE smbm_index_patches_total counter" in lines
        assert any(l.startswith("# HELP smbm_index_rebuilds_total full O(N)")
                   for l in lines)
        assert any(l.startswith("# HELP smbm_index_patches_total table writes")
                   for l in lines)
        assert "smbm_index_rebuilds_total 1" in lines
        assert "smbm_index_patches_total 1" in lines
        assert "# TYPE filter_eval_ns histogram" in lines
        assert any(l.startswith("pipeline_cell_activations_total{")
                   for l in lines)
        assert any(l.startswith('filter_eval_ns_bucket{')
                   for l in lines)

    def test_value_of_matches_snapshot(self):
        with obs.use_registry() as reg:
            _module = _run_workload(reg)
            assert reg.value_of(
                "filter_memo_hits_total", {"policy": "e2e"}
            ) == 1
            assert reg.value_of("smbm_writes_total") == 10  # add + delete

    def test_objects_built_outside_the_scope_stay_dark(self):
        # Construct under the null registry, *then* enable: the module was
        # never instrumented, so the registry must stay empty.
        module = FilterModule(
            CAP, METRICS,
            Policy(predicate(TableRef(), "a", RelOp.LT, 8), name="dark"),
        )
        with obs.use_registry() as reg:
            for rid in range(4):
                module.update_resource(rid, {"a": rid, "b": rid})
            module.evaluate()
            snap = obs.snapshot(reg)
        assert snap["counters"] == {}
        assert snap["histograms"] == {}

    def test_direct_compiled_policy_reports_pipeline_packets(self):
        with obs.use_registry() as reg:
            module = FilterModule(
                CAP, METRICS,
                Policy(min_of(TableRef(), "b"), name="direct"),
            )
            for rid in range(6):
                module.update_resource(rid, {"a": rid, "b": 10 - rid})
            compiled = PolicyCompiler(PipelineParams()).compile(
                Policy(min_of(TableRef(), "b"), name="direct2")
            )
            for _ in range(5):
                compiled.evaluate(module.smbm)
            # Keep both pipelines alive through the read (weakref hooks).
            total = reg.value_of("pipeline_packets_total")
            assert module is not None and compiled is not None
        assert total == 5


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])

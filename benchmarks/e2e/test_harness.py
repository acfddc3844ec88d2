"""The harness checks itself at ``--smoke`` size (seconds per workload).

Run as ``pytest benchmarks/e2e``.  Nothing here asserts a timing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import run, shape, spec, workloads
from benchmarks.e2e.compare import is_exact, verdict
from repro.engine.batch import META_FILTER_OUTPUT
from repro.serving import BatchedBackend, ScalarBackend

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 11


@pytest.fixture(scope="module")
def traced_twice():
    """Two traced passes of every workload on one seed."""
    return {
        name: [workloads.run_traced(name, SEED, 0, smoke=True)
               for _ in range(2)]
        for name in spec.WORKLOADS
    }


def contract_line(capsys, argv: list[str]) -> tuple[int, dict]:
    code = run.main(argv)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_benchmark_json_is_within_the_contract():
    doc = spec.CONTRACT
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = doc["end_to_end"] + doc["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    setup = spec.END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    runs = 4 + 22 * len(doc["workloads"])
    assert isinstance(doc["run_seconds"], int)
    assert runs * (doc["run_seconds"] + 15) < 3420


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_end_to_end_result_schema(workload, capsys, tmp_path):
    code, line = contract_line(capsys, [
        "--workload", workload, "--seed", str(SEED), "--trace", "0",
        "--smoke", "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert set(line["metrics"]) == set(spec.END_TO_END)
    for name, m in line["metrics"].items():
        assert m["unit"] == spec.END_TO_END[name]["unit"]
        assert m["value"] > 0
    full = json.loads((tmp_path / "r.json").read_text())
    assert set(full["provenance"]) == {"git_sha", "date", "python", "nproc",
                                       "engine_lane"}
    assert set(spec.gated_metrics(workload)) <= set(full["metrics"])


def test_a_missing_end_to_end_metric_is_an_error(monkeypatch, tmp_path):
    def without_throughput(*args):
        return {"attempted": 1, "failed": 0, "metrics": {
            name: 1.0 for name in spec.END_TO_END
            if name != "throughput_per_s"}}

    monkeypatch.setattr(workloads, "run_end_to_end", without_throughput)
    with pytest.raises(KeyError, match="throughput_per_s"):
        run.main(["--workload", "uniform_read", "--seed", str(SEED),
                  "--smoke", "--out", str(tmp_path / "r.json")])


def test_traced_result_schema_through_the_command_line(tmp_path):
    """The real entry point, as the driver invokes it."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "probe_mix",
         "--seed", str(SEED), "--seconds", "1", "--trace", "1", "--smoke",
         "--out", str(tmp_path / "r.json")],
        cwd=spec.REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line["metrics"]) == set(spec.PER_LAYER)
    assert line["correct"] is True


def test_counts_and_digest_repeat_for_a_seed(traced_twice):
    for name, (first, second) in traced_twice.items():
        assert first["failed"] == second["failed"] == 0
        assert first["output_digest"] == second["output_digest"], name
        assert set(first["metrics"]) <= set(spec.PER_LAYER)
        for metric in first["metrics"]:
            if is_exact(metric):
                assert first["metrics"][metric] == second["metrics"][metric], (
                    name, metric)


def test_a_seed_changes_the_inputs(traced_twice):
    other = workloads.run_traced("masked_read", SEED + 1, 0, smoke=True)
    assert (other["output_digest"]
            != traced_twice["masked_read"][0]["output_digest"])
    assert shape.table_writes(1) == shape.table_writes(1)
    assert shape.table_writes(1) != shape.table_writes(2)
    plan = shape.op_plan(1, "t0", 500)
    assert len(plan) == 500
    assert workloads.model_of(workloads.fill_plans(1), {"t0": plan})[
        "t0"].keys() == set(range(shape.ROWS))


def test_span_self_times_sum_to_the_root(traced_twice):
    for name, (result, _) in traced_twice.items():
        tracer = result["tracer"]
        roots = [s for s in tracer.spans if s[3] < 0]
        assert roots
        assert sum(tracer.self_times()) == sum(s[2] - s[1] for s in roots)
        assert all(s[1] <= s[2] for s in tracer.spans)
        if name != "control_write":
            assert {s[0] for s in roots} == {"serving.backend"}
            assert result["metrics"]["trace.unattributed_ratio"] <= 0.05
        else:
            # measured, not defined away: loop time outside every span
            assert 0 < result["metrics"]["trace.unattributed_ratio"] < 1
    # the wrappers are gone again
    assert "process_batch" not in vars(BatchedBackend)


def test_predicted_zeros_hold(traced_twice):
    layers = {name: runs[0]["metrics"] for name, runs in traced_twice.items()}
    uniform = layers["uniform_read"]
    assert uniform["switch.filter_module.engine_rows"] == 0
    assert uniform["switch.filter_module.memo_misses"] == 0
    assert uniform["switch.filter_module.memo_hit_ratio"] == 1.0
    assert uniform["tenancy.demux.partition_calls"] == 2 * uniform[
        "switch.thanos_switch.runs"]
    for name, m in layers.items():
        if name == "control_write":
            continue
        only_probe_mix = name == "probe_mix"
        assert (m["switch.filter_module.fallback_rows"] > 0) == only_probe_mix
        assert (m["switch.filter_module.memo_misses"] > 0) == only_probe_mix
        assert (m["core.smbm.writes"] > 0) == only_probe_mix
        only_masked = name == "masked_read"
        assert (m["engine.columnar.rows"] > 0) == only_masked
        assert (m["engine.codegen.rows"] > 0) == only_masked
    masked = layers["masked_read"]
    assert masked["switch.filter_module.broadcast_rows"] == 0
    control = layers["control_write"]
    assert control["serving.controller.ops"] > 0
    assert control["serving.controller.errors"] == 0
    assert control["serving.controller.shed"] == 0
    assert control["serving.recovery.replay_errors"] == 0
    assert control["serving.wal.records"] == (
        control["serving.controller.ops"] + 1)  # + the shutdown marker


def test_one_corrupted_expected_output_fails_the_run(monkeypatch, capsys,
                                                     tmp_path):
    class Corrupting(ScalarBackend):
        corrupted = False

        def process_batch(self, packets):
            out = super().process_batch(packets)
            if not Corrupting.corrupted:
                Corrupting.corrupted = True
                packets[0].metadata[META_FILTER_OUTPUT] ^= 1
            return out

    # the first reference call is warm-up; corrupt a checked one
    monkeypatch.setattr(workloads, "WARM_BATCHES", 0)
    monkeypatch.setattr(workloads, "ScalarBackend", Corrupting)
    code, line = contract_line(capsys, [
        "--workload", "uniform_read", "--seed", str(SEED), "--trace", "0",
        "--smoke", "--out", str(tmp_path / "r.json")])
    assert code != 0
    assert line["correct"] is False and line["failed"] == 1


def test_compare_verdicts():
    lower = {"better": "lower", "bound": 0.08}
    higher = {"better": "higher", "bound": 0.08}
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100]
    assert verdict(lower, steady, steady[::-1])["verdict"] == "unchanged"
    assert verdict(lower, steady, [v * 1.2 for v in steady])[
        "verdict"] == "regression"
    assert verdict(higher, steady, [v * 0.8 for v in steady])[
        "verdict"] == "regression"
    assert verdict(lower, steady, [v * 0.9 for v in steady])[
        "verdict"] == "gain"
    assert verdict(higher, steady, [v * 1.1 for v in steady])[
        "verdict"] == "gain"
    noisy = [100.0, 130.0, 80.0, 120.0, 90.0, 125.0, 85.0, 110.0, 95.0, 105]
    assert verdict(lower, noisy, noisy[::-1])["verdict"] == "unresolved"
    # wider than the bound, yet every run of B beats every run of A
    assert verdict(lower, noisy, [v * 0.5 for v in noisy])[
        "verdict"] == "gain"

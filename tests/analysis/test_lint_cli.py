"""The ``python -m repro.analysis.lint`` CLI over the bundled policies.

Acceptance: every policy shipped in :mod:`repro.policies` verifies clean
on the geometry its module deploys it on, and the CLI's exit status
encodes the outcome for the CI lint job.
"""

from __future__ import annotations

from repro import obs
from repro.analysis.lint import POLICY_CATALOGUE, lint_all, main


def test_every_bundled_policy_lints_as_catalogued():
    reports = lint_all()
    assert len(reports) == len(POLICY_CATALOGUE) == 11
    expectations = {e.name: set(e.expect_rules) for e in POLICY_CATALOGUE}
    for name, report in reports.items():
        expected = expectations[name]
        if not expected:
            assert report.clean, f"{name}: {report.describe()}"
        else:
            # Demonstration entries: exactly the promised rules fire,
            # and nothing outside them.
            fired = {f.rule for f in report.findings}
            assert fired == expected, f"{name}: {report.describe()}"


def test_tenancy_rules_exercised_from_the_catalogue():
    reports = lint_all("tenancy")
    fired = {f.rule for r in reports.values() for f in r.findings}
    assert {"TH013", "TH014"} <= fired
    assert reports["tenancy-sliced-lb"].clean


def test_cli_exit_zero_with_expected_demo_findings(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert ("linted 11 bundled policies: 0 error(s), "
            "0 warning(s), 6 expected demo finding(s)") in out
    assert "TH013" in out and "TH014" in out
    assert "(expected: demonstration entry)" in out


def test_cli_verbose_lists_every_policy(capsys):
    assert main(["-v"]) == 0
    out = capsys.readouterr().out
    for entry in POLICY_CATALOGUE:
        if not entry.expect_rules:
            assert f"{entry.name}: clean" in out


def test_cli_name_filter(capsys):
    assert main(["drill", "-v"]) == 0
    out = capsys.readouterr().out
    assert "drill: clean" in out
    assert "linted 1 bundled policy:" in out


def test_cli_unmatched_filter_exits_two(capsys):
    assert main(["no-such-policy"]) == 2
    assert "no bundled policy matches" in capsys.readouterr().err


def test_findings_flow_into_metrics_registry():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        lint_all("drill")
        # Clean run: the emit() path ran but recorded no findings.
        snapshot = obs.snapshot(registry)
    assert not any(
        series.startswith("lint_findings_total")
        for series in snapshot.get("counters", {})
    )


def test_emitted_findings_counted_by_rule():
    from repro.analysis import Report

    report = Report(subject="test")
    report.add("TH001", "dead")
    report.add("TH001", "dead again")
    report.add("TH011", "empty")
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        report.emit()
        snapshot = obs.snapshot(registry)
    counters = {
        series: value
        for series, value in snapshot.get("counters", {}).items()
        if series.startswith("lint_findings_total")
    }
    assert counters == {
        'lint_findings_total{rule="TH001"}': 2,
        'lint_findings_total{rule="TH011"}': 1,
    }


def test_semantic_mode_runs_the_symbolic_demonstrations(capsys, monkeypatch):
    from repro.analysis import lint
    from repro.analysis.lint import SEMANTIC_CATALOGUE

    assert main(["--semantic"]) == 0
    out = capsys.readouterr().out
    for rule in ("TH017", "TH018", "TH019", "TH021"):
        assert rule in out
    assert "semantic overhead:" in out
    n = 11 + len(SEMANTIC_CATALOGUE)
    assert f"linted {n} bundled policies" in out
    assert "10 expected demo finding(s)" in out
    # The overhead budget is part of the exit status, not a CI-side parse.
    monkeypatch.setattr(lint, "SEMANTIC_OVERHEAD_BUDGET", 0.5)
    assert main(["--semantic"]) == 1
    out = capsys.readouterr().out
    assert "reaches the 0.5x lint-time budget" in out
    assert "1 error(s)" in out


def test_semantic_demos_fire_exactly_their_promised_rules():
    from repro.analysis.lint import SEMANTIC_CATALOGUE

    reports = lint_all("semantic", semantic=True)
    assert len(reports) == len(SEMANTIC_CATALOGUE)
    for entry in SEMANTIC_CATALOGUE:
        fired = {f.rule for f in reports[entry.name].findings}
        assert fired == set(entry.expect_rules), reports[entry.name].describe()


def test_json_format_is_machine_readable(capsys):
    import json

    assert main(["--semantic", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["errors"] == 0
    assert doc["summary"]["expected_demo_findings"] == 10
    assert "replay" not in doc  # TH016 retired with the handler registry
    by_name = {p["name"]: p for p in doc["policies"]}
    th17 = [f for f in by_name["semantic-unreachable-demo"]["findings"]
            if f["rule"] == "TH017"]
    assert th17 and th17[0]["severity"] == "warning"
    assert th17[0]["node_path"] == []  # root-to-node index path, JSON list
    assert th17[0]["name"] == "UnreachablePredicate"
    assert not any(p["stale_rules"] for p in doc["policies"])
    # The acceptance bar: the symbolic pass stays under 2x baseline.
    assert doc["timing"]["ratio"] < 2.0


def test_json_format_without_semantic_omits_timing(capsys):
    import json

    assert main(["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "timing" not in doc
    assert doc["summary"]["linted"] == 11

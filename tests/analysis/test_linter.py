"""Linter driver + report rendering (JSON / SARIF / text) semantics."""

import json

import pytest

from repro.analysis import (
    LintTarget,
    PerforationLinter,
    Severity,
    lint_catalog,
    rule_catalog,
    template_covers,
    templates_overlap,
)
from repro.analysis.model import TCB_SURFACE_PREFIXES, network_mode
from repro.analysis.modelcheck import escape_actions, initial_state
from repro.analysis.modelcheck.actions import (
    PtraceAction,
    blocked_by_isolation,
    residual_defense,
)
from repro.containit import PerforatedContainerSpec
from repro.kernel.namespaces import NamespaceKind


def spec(**kwargs):
    kwargs.setdefault("name", "F-1")
    return PerforatedContainerSpec(**kwargs)


class TestPrivilegeModel:
    """The one privilege model: escape-action gates from the initial state."""

    def test_full_root_sees_everything(self):
        state = initial_state(LintTarget(spec=spec(fs_shares=("/",))))
        assert state.path_visible("/dev/mem")
        assert any(templates_overlap(share, "/opt/watchit")
                   for share in state.view)
        assert any(templates_overlap(share, prefix)
                   for share in state.view
                   for prefix in TCB_SURFACE_PREFIXES)

    def test_template_wildcard_matching(self):
        assert template_covers("/home/{user}", "/home/alice/notes.txt")
        assert template_covers("/home", "/home/{user}")
        assert not template_covers("/home/{user}/a", "/home/alice")
        assert templates_overlap("/home/{user}", "/home")
        assert not templates_overlap("/etc", "/home/{user}")

    def test_network_modes(self):
        assert network_mode(spec()) == "isolated"
        assert network_mode(spec(share_network_ns=True)) == "host"
        assert network_mode(
            spec(network_allowed=("license-server",))) == "firewalled"

    def test_escape_paths_cover_all_modeled_routes(self):
        actions = escape_actions()
        assert {a.route for a in actions} == \
            {"chroot", "ptrace", "mknod", "devmem", "ipc"}
        # Table 1 ids for the four escape attacks; ipc is the extra probe
        assert {a.attack_id for a in actions} == {0, 1, 2, 3, 4}

    def test_pid_hole_reaches_capability_gate(self):
        state = initial_state(
            LintTarget(spec=spec(process_management=True)))
        assert state.shares(NamespaceKind.PID)
        gates = PtraceAction().gates(state)
        assert not blocked_by_isolation(gates)
        assert any(g.blocked for g in gates)
        assert residual_defense(gates) == "CAP_SYS_PTRACE dropped"


class TestReports:
    def test_json_shape(self):
        report = lint_catalog()
        payload = report.to_json()
        assert payload["linter"] == "watchit-perforation-linter"
        assert set(payload["summary"]) == {"error", "warning", "info"}
        for finding in payload["findings"]:
            assert set(finding) == {"rule", "severity", "subject",
                                    "location", "message", "evidence"}
        json.dumps(payload)  # round-trips through json

    def test_sarif_shape(self):
        report = lint_catalog()
        sarif = report.to_sarif()
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rules == set(rule_catalog())
        for result in run["results"]:
            assert result["ruleId"] in rules
            assert result["level"] in ("note", "warning", "error")
        json.dumps(sarif)

    def test_text_format_mentions_rules_and_counts(self):
        report = lint_catalog()
        text = report.format()
        assert "Perforation lint" in text
        for finding in report.findings:
            assert finding.rule_id in text

    def test_report_ordering_is_deterministic(self):
        first = lint_catalog().dumps()
        second = lint_catalog().dumps()
        assert first == second

    def test_severity_ordering_and_fails(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        report = lint_catalog()
        assert not report.fails(Severity.ERROR)
        assert report.fails(Severity.WARNING)  # catalog carries warnings
        assert Severity.parse("warning") is Severity.WARNING

    def test_severity_parse_rejects_unknown_labels(self):
        with pytest.raises(ValueError) as excinfo:
            Severity.parse("critical")
        message = str(excinfo.value)
        # a usable error: names the bad label and lists the valid ones
        assert "critical" in message
        for label in ("info", "warning", "error"):
            assert label in message

    def test_severity_parse_is_not_case_insensitive_by_accident(self):
        with pytest.raises(ValueError):
            Severity.parse("")

    def test_errors_sort_before_warnings(self):
        linter = PerforationLinter()
        report = linter.lint(LintTarget(
            spec(share_ipc=True, process_management=True)))
        severities = [f.severity for f in report.findings]
        assert severities == sorted(severities, reverse=True)
        assert report.findings[0].rule_id == "WIT005"

    def test_lint_many_aggregates_subjects(self):
        linter = PerforationLinter()
        report = linter.lint_many([
            LintTarget(spec(name="A-1", share_ipc=True)),
            LintTarget(spec(name="A-2")),
        ])
        assert report.targets == ("A-1", "A-2")
        assert report.for_subject("A-1") and not report.for_subject("A-2")

"""CLI smoke tests."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_name_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])

    def test_full_flag(self):
        args = build_parser().parse_args(["experiment", "table2", "--full"])
        assert args.full and args.name == "table2"


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "T-1" in out and "chain verified: True" in out

    def test_threats(self, capsys):
        assert main(["threats"]) == 0
        assert "11/11 attacks blocked" in capsys.readouterr().out

    def test_experiment_table3(self, capsys):
        assert main(["experiment", "table3"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_experiment_figure7(self, capsys):
        assert main(["experiment", "figure7"]) == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_anomaly(self, capsys):
        assert main(["anomaly", "--benign", "10", "--malicious", "3"]) == 0
        assert "precision" in capsys.readouterr().out


class TestLintCommand:
    def test_text_output_is_error_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "Perforation lint" in out
        assert "0 error(s)" in out

    def test_json_output_parses_with_zero_errors(self, capsys):
        import json
        assert main(["lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["error"] == 0
        assert payload["targets"]  # whole catalog linted

    def test_sarif_output(self, capsys):
        import json
        assert main(["lint", "--sarif"]) == 0
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"

    def test_single_class_filter(self, capsys):
        assert main(["lint", "--class", "T-3", "--json"]) == 0
        import json
        payload = json.loads(capsys.readouterr().out)
        assert payload["targets"] == ["T-3"]

    def test_unknown_class_exits_2(self, capsys):
        assert main(["lint", "--class", "T-99"]) == 2
        assert "unknown" in capsys.readouterr().err.lower()

    def test_fail_on_warning_fails_the_catalog(self, capsys):
        # the shipped catalog carries defense-in-depth warnings, so a
        # stricter gate must flip the exit code
        assert main(["lint", "--fail-on", "warning"]) == 1
        assert main(["lint", "--fail-on", "never"]) == 0

    def test_unknown_fail_on_label_is_a_usage_error(self, capsys):
        # exit 2 with a diagnostic, never a traceback
        assert main(["lint", "--fail-on", "critical"]) == 2
        err = capsys.readouterr().err
        assert "critical" in err and "--fail-on" in err


class TestVerifyModelCommand:
    def test_catalog_passes_with_replay(self, capsys):
        assert main(["verify-model"]) == 0
        out = capsys.readouterr().out
        assert "verify-model: PASS" in out
        assert "0 reachable-unaudited escape(s)" in out
        assert "0 replay disagreement(s)" in out

    def test_overprivileged_fixture_fails(self, capsys):
        assert main(["verify-model", "--class", "X-DEV"]) == 1
        out = capsys.readouterr().out
        assert "verify-model: FAIL" in out
        assert "kernel-memory" in out

    def test_json_output_parses(self, capsys):
        import json
        assert main(["verify-model", "--no-replay", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["unaudited_escapes"] == []

    def test_sarif_include_lint_merges_both_tools(self, capsys):
        import json
        assert main(["verify-model", "--no-replay", "--sarif",
                     "--include-lint"]) == 0
        sarif = json.loads(capsys.readouterr().out)
        driver = sarif["runs"][0]["tool"]["driver"]
        assert driver["name"] == "watchit-analysis"
        ids = [r["id"] for r in driver["rules"]]
        assert ids == sorted(ids) and len(ids) == len(set(ids))
        assert any(i.startswith("WIT00") for i in ids)
        assert any(i.startswith("WIT04") for i in ids)

    def test_unknown_class_exits_2(self, capsys):
        assert main(["verify-model", "--class", "T-99"]) == 2
        assert "unknown" in capsys.readouterr().err.lower()

    def test_bad_depth_exits_2(self, capsys):
        assert main(["verify-model", "--depth", "0"]) == 2
        assert "depth" in capsys.readouterr().err.lower()

    def test_unknown_fail_on_label_exits_2(self, capsys):
        assert main(["verify-model", "--fail-on", "sev9"]) == 2
        err = capsys.readouterr().err
        assert "sev9" in err and "--fail-on" in err

    def test_fail_on_info_flips_exit_on_clean_catalog(self, capsys):
        # WIT042/WIT044 informational notes exist on the shipped catalog
        assert main(["verify-model", "--no-replay",
                     "--fail-on", "info"]) == 1


class TestMineCommand:
    def test_subset_mines_and_passes(self, capsys):
        assert main(["mine", "--class", "T-1", "--class", "T-2",
                     "--max-sessions", "2"]) == 0
        out = capsys.readouterr().out
        assert "mine: PASS" in out
        assert "2 spec(s) mined" in out

    def test_overprivileged_fixture_exits_nonzero(self, capsys):
        assert main(["mine", "--class", "X-DEV",
                     "--max-sessions", "2"]) == 1
        out = capsys.readouterr().out
        assert "WIT053" in out and "WIT054" in out
        # structurally the mine still succeeds — findings gate the exit
        assert "mine: PASS" in out

    def test_json_output_parses(self, capsys):
        import json
        assert main(["mine", "--class", "T-1",
                     "--max-sessions", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["classes"][0]["ticket_class"] == "T-1"
        assert payload["classes"][0]["proven"] is True
        assert payload["digest"]

    def test_sarif_include_lint_merges_both_tools(self, capsys):
        import json
        assert main(["mine", "--class", "T-9", "--max-sessions", "2",
                     "--sarif", "--include-lint"]) == 0
        sarif = json.loads(capsys.readouterr().out)
        driver = sarif["runs"][0]["tool"]["driver"]
        assert driver["name"] == "watchit-analysis"
        ids = [r["id"] for r in driver["rules"]]
        assert ids == sorted(ids) and len(ids) == len(set(ids))
        assert any(i.startswith("WIT00") for i in ids)
        assert any(i.startswith("WIT05") for i in ids)

    def test_sarif_alone_uses_miner_tool_name(self, capsys):
        import json
        assert main(["mine", "--class", "T-1", "--max-sessions", "2",
                     "--sarif"]) == 0
        sarif = json.loads(capsys.readouterr().out)
        driver = sarif["runs"][0]["tool"]["driver"]
        assert driver["name"] == "watchit-policy-miner"

    def test_bench_out_writes_experiment_report(self, tmp_path, capsys):
        import json
        out = tmp_path / "bench.json"
        assert main(["mine", "--class", "T-1", "--max-sessions", "2",
                     "--bench-out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "watchit-experiment-report/v1"
        assert payload["metrics"]["specs_mined"] == 1

    def test_unknown_class_exits_2(self, capsys):
        assert main(["mine", "--class", "T-99"]) == 2
        assert "unknown" in capsys.readouterr().err.lower()

    def test_bad_min_sessions_exits_2(self, capsys):
        assert main(["mine", "--min-sessions", "0"]) == 2
        assert "--min-sessions" in capsys.readouterr().err

    def test_unknown_fail_on_label_exits_2(self, capsys):
        assert main(["mine", "--fail-on", "sev9"]) == 2
        err = capsys.readouterr().err
        assert "sev9" in err and "--fail-on" in err


class TestObservabilityCommands:
    """The ``metrics`` and ``trace`` subcommands and ``--metrics-out``."""

    def test_metrics_table1_reports_all_subsystems(self, capsys):
        assert main(["metrics", "table1"]) == 0
        out = capsys.readouterr().out

        def value_of(name):
            lines = out.splitlines()
            total = 0.0
            for i, line in enumerate(lines):
                if line == name:
                    for series in lines[i + 1:]:
                        if not series.startswith("  "):
                            break
                        total += float(series.split()[-1])
            return total

        # the acceptance bar: non-zero syscall, ITFS (incl. cache
        # hit/miss/eviction), and broker counters from one shared registry
        for name in ("syscall_total", "syscall_denied", "itfs_ops_total",
                     "itfs_ops_denied", "itfs_cache_hits", "itfs_cache_misses",
                     "itfs_cache_evictions", "broker_requests_total",
                     "broker_granted_total", "broker_denied_total"):
            assert value_of(name) > 0, name

    def test_metrics_json_snapshot_parses(self, capsys):
        import json
        assert main(["metrics", "table1", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert {m["name"] for m in snapshot} >= {"syscall_total",
                                                 "itfs_ops_total"}

    def test_metrics_prefix_filter(self, capsys):
        assert main(["metrics", "table1", "--prefix", "broker_"]) == 0
        out = capsys.readouterr().out
        assert "broker_requests_total" in out
        assert "syscall_total" not in out

    def test_trace_renders_nested_span_tree(self, capsys):
        assert main(["trace", "table1", "--limit", "200"]) == 0
        out = capsys.readouterr().out
        assert "syscall:read_file" in out
        assert "  itfs:check" in out       # nested under the syscall span
        assert "broker:exec" in out
        assert "spans started" in out

    def test_trace_jsonl_is_machine_readable(self, capsys):
        import json
        assert main(["trace", "table1", "--jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        names = {json.loads(line)["name"] for line in lines}
        assert "itfs:check" in names

    def test_experiment_metrics_out_writes_report(self, tmp_path, capsys):
        import json
        out_path = tmp_path / "metrics.json"
        assert main(["experiment", "figure9",
                     "--metrics-out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["schema"] == "watchit-experiment-report/v1"
        assert report["name"] == "experiment-figure9"
        snapshot = report["artifacts"]["metrics"]
        assert any(m["name"] == "itfs_ops_total" for m in snapshot)
        assert "metrics written to" in capsys.readouterr().out


class TestServe:
    def test_serve_smoke(self, capsys):
        import json
        assert main(["serve", "--shards", "2", "--tickets", "8",
                     "--duplicates", "0.5", "--pool-size", "1",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tickets"] == 8
        assert payload["errors"] == 0
        assert payload["sharded_tickets_per_s"] > 0

    def test_serve_smoke_process_workers(self, capsys):
        import json
        assert main(["serve", "--shards", "2", "--tickets", "16",
                     "--duplicates", "0.1", "--pool-size", "1",
                     "--workers", "process", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workers"] == "process"
        assert payload["tickets"] == 16
        assert payload["errors"] == 0
        assert payload["sharded_tickets_per_s"] > 0


class TestReplayHistory:
    """``repro serve --db`` persists, ``repro replay``/``history`` read
    it back — the full forensic loop from the SQLite file alone."""

    @pytest.fixture()
    def served_db(self, tmp_path, capsys):
        db = tmp_path / "storm.db"
        assert main(["serve", "--shards", "1", "--tickets", "4",
                     "--duplicates", "0.5", "--pool-size", "1",
                     "--db", str(db)]) == 0
        err = capsys.readouterr().err
        assert "4 sessions persisted" in err
        assert "repro replay" in err  # the hint points at the next verb
        return db

    def test_replay_latest_renders_the_decision_trail(self, served_db,
                                                      capsys):
        assert main(["replay", "--db", str(served_db), "--latest"]) == 0
        out = capsys.readouterr().out
        assert "session default-b1-" in out
        assert "resolved" in out and "decision trail" in out
        assert "chains verified" in out

    def test_replay_json_parses_and_is_verified(self, served_db, capsys):
        import json
        assert main(["replay", "--db", str(served_db), "--latest",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["chain_verified"] is True
        assert payload["session"]["session_id"].startswith("default-b1-")

    def test_replay_by_explicit_session_id(self, served_db, capsys):
        import json
        main(["replay", "--db", str(served_db), "--latest", "--json"])
        session_id = json.loads(
            capsys.readouterr().out)["session"]["session_id"]
        assert main(["replay", "--db", str(served_db), session_id]) == 0
        assert session_id in capsys.readouterr().out

    def test_replay_unknown_session_exits_1(self, served_db, capsys):
        assert main(["replay", "--db", str(served_db),
                     "default-b99-0"]) == 1
        assert "no session" in capsys.readouterr().err

    def test_replay_detects_tampering(self, served_db, capsys):
        import json
        import sqlite3
        main(["replay", "--db", str(served_db), "--latest", "--json"])
        session_id = json.loads(
            capsys.readouterr().out)["session"]["session_id"]
        conn = sqlite3.connect(served_db)
        conn.execute("UPDATE audit_events SET path = '/etc/shadow' "
                     "WHERE session_id = ?", (session_id,))
        conn.commit()
        conn.close()
        assert main(["replay", "--db", str(served_db), session_id]) == 1
        assert "CHAIN VERIFICATION FAILED" in capsys.readouterr().err

    def test_replay_without_a_selector_exits_2(self, served_db, capsys):
        assert main(["replay", "--db", str(served_db)]) == 2
        assert "--latest" in capsys.readouterr().err

    def test_replay_empty_org_filter_exits_1(self, served_db, capsys):
        assert main(["replay", "--db", str(served_db), "--latest",
                     "--org", "ghost"]) == 1
        assert "no sessions" in capsys.readouterr().err

    def test_history_lists_the_serve_run(self, served_db, capsys):
        assert main(["history", "--db", str(served_db)]) == 0
        out = capsys.readouterr().out
        assert "bench history" in out
        assert "controlplane-throughput" in out
        assert "sharded_tickets_per_s" in out

    def test_history_imports_bench_reports(self, tmp_path, capsys):
        import json
        db = tmp_path / "hist.db"
        report = tmp_path / "BENCH_x.json"
        report.write_text(json.dumps({
            "schema": "watchit-experiment-report/v1",
            "name": "store-overhead", "params": {},
            "metrics": {"overhead_pct": 3.8}, "artifacts": {}}))
        assert main(["history", "--db", str(db),
                     "--import", str(report)]) == 0
        captured = capsys.readouterr()
        assert "imported 1 report(s)" in captured.err
        assert "store-overhead" in captured.out
        # the import is durable: a second invocation reads it back
        assert main(["history", "--db", str(db), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in rows] == ["store-overhead"]

    def test_history_missing_import_file_exits_2(self, tmp_path, capsys):
        assert main(["history", "--db", str(tmp_path / "h.db"),
                     "--import", str(tmp_path / "nope.json")]) == 2
        assert "no such file" in capsys.readouterr().err


class TestExitCodeConvention:
    """Usage errors exit 2 with a diagnostic on stderr — every command."""

    @pytest.mark.parametrize("argv", [
        ["chaos", "--iterations", "0"],
        ["chaos", "--intensity", "0"],
        ["chaos", "--intensity", "1.5"],
        ["metrics", "--cache-capacity", "0"],
        ["trace", "--cache-capacity", "0"],
        ["trace", "--limit", "0"],
        ["serve", "--shards", "0"],
        ["serve", "--pool-size", "-1"],
        ["serve", "--tickets", "0"],
        ["serve", "--duplicates", "1.0"],
        ["serve", "--queue-depth", "0"],
        ["lint", "--fail-on", "bogus"],
        ["lint", "--class", "T-99"],
        ["lint-threads", "--fail-on", "bogus"],
        ["lint-threads", "--path", "/nonexistent"],
        ["lint-threads", "--crosscheck", "--tickets", "0"],
        ["lint-threads", "--crosscheck", "--chaos-iterations", "-1"],
        ["verify-model", "--class", "T-99"],
        ["verify-model", "--depth", "0"],
        ["verify-model", "--include-lint"],
        ["mine", "--fail-on", "bogus"],
        ["mine", "--class", "T-99"],
        ["mine", "--tickets", "0"],
        ["mine", "--include-lint"],
        ["replay"],
        ["replay", "--db", "/nonexistent/watchit.db", "--latest"],
        ["history"],
        ["history", "--db", "ignored.db", "--limit", "0"],
    ], ids=lambda argv: " ".join(argv))
    def test_usage_errors_exit_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.strip(), "usage diagnostics belong on stderr"
        assert "Traceback" not in captured.err


class TestAnalyzerRunner:
    """``lint``, ``lint-threads``, ``verify-model`` and ``mine`` share one
    runner: one ``--class`` selector, one machine-output rule."""

    @pytest.mark.parametrize("mode", ["--json", "--sarif"])
    @pytest.mark.parametrize("argv", [
        ["lint", "--class", "T-3", "--crosscheck"],
        ["lint-threads", "--crosscheck", "--tickets", "8",
         "--chaos-iterations", "0"],
    ], ids=lambda argv: argv[0])
    def test_machine_mode_crosscheck_prints_only_json(self, argv, mode,
                                                      capsys):
        import json
        assert main(argv + [mode]) == 0
        out = capsys.readouterr().out
        decoder, documents, pos = json.JSONDecoder(), [], 0
        while pos < len(out):
            document, pos = decoder.raw_decode(out, pos)
            documents.append(document)
            pos = len(out) - len(out[pos:].lstrip())
        assert len(documents) == 2  # the report, then the cross-check

    def test_lint_accepts_the_fixture_class(self, capsys):
        import json
        assert main(["lint", "--class", "X-DEV", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["targets"] == ["X-DEV"]
        assert payload["summary"]["error"] == 0
        assert {f["rule"] for f in payload["findings"]} == {"WIT013"}

    def test_verify_model_fails_the_fixture_class(self, capsys):
        assert main(["verify-model", "--class", "X-DEV",
                     "--no-replay"]) == 1
        assert "verify-model: FAIL" in capsys.readouterr().out

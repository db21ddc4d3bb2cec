"""Experiment runners: fast-parameter versions of every table/figure."""

import pytest

from repro.experiments import (
    run_figure7,
    run_figure8,
    run_figure9,
    run_table1,
    run_table3,
    run_table4,
)
from repro.experiments.table2_lda import run_table2


class TestTable1:
    def test_all_attacks_blocked(self):
        result = run_table1()
        assert result.all_blocked
        assert len(result.results) == 11
        assert "Escape perforated container" in result.format()


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table2(n_tickets=500, n_iter=50, seed=0)

    def test_ten_topics(self, result):
        assert len(result.topics) == 10

    def test_topics_align_with_seeded_classes(self, result):
        # most topics' top words should overlap their class vocabulary
        assert result.mean_overlap > 0.3

    def test_recovers_most_classes(self, result):
        assert result.distinct_classes_recovered >= 7

    def test_format_contains_words(self, result):
        assert "Top words" in result.format()


class TestTable3:
    def test_matrix_and_probes(self):
        result = run_table3(probe=True)
        assert len(result.rows) == 11
        assert result.probe_failures == []

    def test_t4_row_has_implicit_network_grants(self):
        result = run_table3(probe=False)
        t4 = next(r for r in result.rows if r["class"] == "T-4")
        assert t4["net-ns"] and t4["license-server"] and t4["target-machine"]


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table4(n_tickets=120, classifier="keyword", seed=3)

    def test_no_replay_errors(self, result):
        assert result.replay_errors == []

    def test_satisfaction_near_paper(self, result):
        # paper: 92% satisfied without the broker
        assert 0.80 <= result.satisfied_fraction <= 1.0

    def test_broker_usage_shape(self, result):
        broker = result.broker_fraction
        # network escalations dominate; filesystem escalations are rare
        assert broker["filesystem"] <= broker["network"] + 0.02
        assert broker["process"] < 0.1

    def test_network_isolation_stat(self, result):
        # paper: network view isolated in 98% of cases (only T-4 shares)
        assert result.isolation_stats["network_view_isolated"] > 0.9

    def test_everything_monitored(self, result):
        assert result.monitored_fs_ops > 0
        assert result.monitored_packets > 0

    def test_format_renders_total_row(self, result):
        assert "Total" in result.format()


class TestFigure7:
    def test_distribution_close_to_paper(self):
        result = run_figure7(n_tickets=4000, seed=1)
        assert result.max_abs_error < 0.04

    def test_rows_cover_ten_classes(self):
        result = run_figure7(n_tickets=500, seed=1)
        assert len(result.rows()) == 10


class TestFigure8:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure8(execute=True)

    def test_distributions(self, result):
        assert result.chef_puppet["S-1"] == (12, 0.60)
        assert result.cluster["S-5"][0] == 10

    def test_all_scripts_execute_confined(self, result):
        assert result.failures == []
        assert result.executed == 33


class TestFigure9:
    def test_shape_holds(self):
        # timing-based: under a fully loaded test run a single measurement
        # can be noisy, so allow a couple of attempts (the benchmark keeps
        # the strict single-shot check at a larger scale)
        attempts = [run_figure9(scale=1, repeats=5) for _ in range(1)]
        if not any(r.shape_holds() for r in attempts):
            attempts.append(run_figure9(scale=2, repeats=5))
        assert any(r.shape_holds() for r in attempts), \
            [r.normalized for r in attempts]

    def test_head_loads_are_exact_per_cell(self):
        # the work behind the shape, counted instead of timed: signature
        # mode reads one file head per checked op, extension mode none
        from repro.experiments.figure9_itfs import _workloads, _wrap

        checked = {"grep-small": 120, "grep-large": 10, "postmark": 271,
                   "sysbench": 65}
        loads = {}
        for name, build, drive in _workloads(1):
            for config in ("itfs-extension", "itfs-signature"):
                itfs = _wrap(build(), config)
                drive(itfs)
                assert itfs.ops_total == checked[name], (name, config)
                loads[name, config] = itfs.head_loads
        assert loads == {
            **{(name, "itfs-extension"): 0 for name in checked},
            **{(name, "itfs-signature"): ops
               for name, ops in checked.items()}}

    def test_policy_evaluations_and_head_bytes_are_exact_per_cell(
            self, monkeypatch):
        # the rest of the counted work: one policy evaluation per checked
        # op (fewer once the pass-through cache answers repeats), and the
        # bytes signature checks read from the backing filesystem
        from repro.experiments.figure9_itfs import _workloads, _wrap
        from repro.itfs import (
            ITFS,
            AppendOnlyLog,
            PolicyManager,
            document_blocking_policy,
        )

        evaluations = []
        evaluate = PolicyManager.evaluate

        def counting_evaluate(policy, *args, **kwargs):
            evaluations.append(policy)
            return evaluate(policy, *args, **kwargs)

        monkeypatch.setattr(PolicyManager, "evaluate", counting_evaluate)
        configs = {
            "itfs-extension": lambda fs: _wrap(fs, "itfs-extension"),
            "itfs-signature": lambda fs: _wrap(fs, "itfs-signature"),
            "itfs-signature+passthrough": lambda fs: ITFS(
                fs, document_blocking_policy(log_all=False,
                                             by_signature=True),
                audit=AppendOnlyLog("fig9"), passthrough=True),
        }
        work = {}
        for name, build, drive in _workloads(1):
            for config, wrap in configs.items():
                fs = build()
                head_bytes = []
                read_head = fs.read_head

                def counting_read_head(path, size, ctx=None,
                                       _read=read_head, _out=head_bytes):
                    data = _read(path, size, ctx)
                    _out.append(len(data))
                    return data

                monkeypatch.setattr(fs, "read_head", counting_read_head)
                itfs = wrap(fs)
                evaluations.clear()
                drive(itfs)
                work[name, config] = (itfs.ops_total, len(evaluations),
                                      sum(head_bytes))
        # (checked ops, policy evaluations, head bytes read)
        assert work == {
            ("grep-small", "itfs-extension"): (120, 120, 0),
            ("grep-small", "itfs-signature"): (120, 120, 1920),
            ("grep-small", "itfs-signature+passthrough"): (120, 120, 1920),
            ("grep-large", "itfs-extension"): (10, 10, 0),
            ("grep-large", "itfs-signature"): (10, 10, 160),
            ("grep-large", "itfs-signature+passthrough"): (10, 10, 160),
            ("postmark", "itfs-extension"): (271, 271, 0),
            ("postmark", "itfs-signature"): (271, 271, 2656),
            ("postmark", "itfs-signature+passthrough"): (271, 252, 2352),
            ("sysbench", "itfs-extension"): (65, 65, 0),
            ("sysbench", "itfs-signature"): (65, 65, 960),
            ("sysbench", "itfs-signature+passthrough"): (65, 17, 192),
        }

    def test_all_cells_measured(self):
        result = run_figure9(scale=1, repeats=1)
        assert set(result.normalized) == {"grep-small", "grep-large",
                                          "postmark", "sysbench"}
        for per_config in result.normalized.values():
            assert per_config["ext4"] == 1.0

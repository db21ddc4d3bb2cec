"""A storm with unresolved tickets fails every verdict measured on it.

The cross-check, the sanitizer-overhead benchmark and the store-overhead
benchmark all drive load through ``run_storm_sharded``. A timing or a
lock graph taken from failed tickets proves nothing, so each of them must
fail when the storm reports an error.
"""

import tempfile

import pytest

from repro.cli import main
from repro.experiments.concurrency_check import run_concurrency_check
from repro.experiments.store_bench import run_store_benchmark
from repro.workload import storm as storm_module
from repro.workload.storm import StormReport


@pytest.fixture()
def failing_storm(monkeypatch):
    """Every storm run reports one unresolved ticket."""

    def run_storm_sharded(storm, **_kwargs):
        return StormReport(tickets=len(storm), unique_texts=1,
                           elapsed_s=0.01, tickets_per_s=100.0 * len(storm),
                           errors=1, shards=1, pool_hit_rate=1.0,
                           workers="thread")

    monkeypatch.setattr(storm_module, "run_storm_sharded",
                        run_storm_sharded)


def test_lint_threads_crosscheck_exits_1(failing_storm, capsys):
    assert main(["lint-threads", "--crosscheck", "--tickets", "8",
                 "--chaos-iterations", "0"]) == 1
    assert "(1 unresolved)" in capsys.readouterr().out


def test_concurrency_check_is_not_ok(failing_storm):
    metrics = run_concurrency_check(tickets=8, repeats=1,
                                    chaos_iterations=0).metrics
    assert metrics["storm_errors"] == 2  # one plain, one instrumented run
    assert metrics["ok"] is False


def test_store_overhead_is_not_within_budget(failing_storm, monkeypatch,
                                             tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    metrics = run_store_benchmark(tickets=8, repeats=1).metrics
    assert metrics["storm_errors"] == 2  # one memory, one SQLite run
    assert metrics["overhead_within_budget"] is False

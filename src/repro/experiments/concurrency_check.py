"""The concurrency-plane benchmark: lint cost + sanitizer overhead.

``run_concurrency_check`` packages the PR's three acceptance numbers
into one :class:`~repro.experiments.schema.ExperimentReport`
(``BENCH_concurrency.json``):

* static analysis wall-time over the full repro tree, with the lock
  graph's size (sites/edges/cycles) alongside;
* sanitizer overhead — min-of-N elapsed for the sustained ticket storm
  instrumented vs. uninstrumented (min-of-N because scheduler noise on a
  sub-second storm otherwise dominates the measurement; the gate is
  ``overhead_pct < 15``);
* the static/dynamic cross-check verdict from the same instrumented
  runs plus a chaos soak (``consistent`` and ``deadlock_free`` must both
  hold).

Every instrumented storm repetition and the chaos soak accumulate into
one sanitizer, so the dynamic graph the cross-check diffs is the union
of everything the benchmark executed.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.concurrency.astlint import lint_threads
from repro.analysis.concurrency.crosscheck import (
    CrossCheckResult,
    classify_con003,
    diff_graphs,
)
from repro.analysis.concurrency.sanitizer import (
    LockOrderSanitizer,
    instrument,
)
from repro.experiments.schema import ExperimentReport

__all__ = ["run_concurrency_check", "OVERHEAD_BUDGET_PCT"]

#: The acceptance ceiling for sanitizer overhead on the storm.
OVERHEAD_BUDGET_PCT = 15.0


def run_concurrency_check(tickets: int = 320, seed: int = 11,
                          duplicate_rate: float = 0.9, shards: int = 4,
                          repeats: int = 3, chaos_seed: int = 1337,
                          chaos_iterations: int = 40,
                          chaos_intensity: float = 0.05,
                          out: Optional[str] = None) -> ExperimentReport:
    """Measure the concurrency plane end to end; optionally write JSON."""
    from repro.faults.chaos import run_chaos
    from repro.workload.storm import generate_storm, run_storm_sharded

    analysis = lint_threads()
    storm = generate_storm(n=tickets, seed=seed,
                           duplicate_rate=duplicate_rate)
    # one unmeasured warmup absorbs classifier/cache cold starts
    run_storm_sharded(storm, shards=shards, workers="thread")
    plain_runs = []
    storm_errors = 0
    for _ in range(max(1, repeats)):
        report = run_storm_sharded(storm, shards=shards, workers="thread")
        plain_runs.append(report.elapsed_s)
        storm_errors += report.errors
    sanitizer = LockOrderSanitizer()
    instrumented_runs = []
    for _ in range(max(1, repeats)):
        with instrument(sanitizer):
            report = run_storm_sharded(storm, shards=shards,
                                       workers="thread")
        instrumented_runs.append(report.elapsed_s)
        storm_errors += report.errors
    chaos_ok = True
    if chaos_iterations > 0:
        with instrument(sanitizer):
            chaos_report = run_chaos(seed=chaos_seed,
                                     iterations=chaos_iterations,
                                     intensity=chaos_intensity)
        chaos_ok = chaos_report.ok
    mapped, unmatched, dynamic_cycles, unreported = diff_graphs(
        analysis, sanitizer)
    crosscheck = CrossCheckResult(
        analysis=analysis,
        dynamic_sites=len(sanitizer.site_keys()),
        dynamic_acquires=sanitizer.acquire_total,
        dynamic_edges=sanitizer.edges(),
        mapped_edges=mapped,
        unmatched_edges=unmatched,
        dynamic_cycles=dynamic_cycles,
        unreported_cycles=unreported,
        con003_verdicts=classify_con003(analysis, sanitizer),
        storm_elapsed_s=min(instrumented_runs),
        storm_tickets=tickets,
        storm_errors=storm_errors,
        chaos_iterations=chaos_iterations,
        chaos_ok=chaos_ok)
    plain_s = min(plain_runs)
    instrumented_s = min(instrumented_runs)
    overhead_pct = 100.0 * (instrumented_s / plain_s - 1.0)
    counts = analysis.report.counts()
    report = ExperimentReport(
        name="concurrency-check",
        params={
            "tickets": tickets, "seed": seed,
            "duplicate_rate": duplicate_rate, "shards": shards,
            "repeats": repeats, "chaos_seed": chaos_seed,
            "chaos_iterations": chaos_iterations,
            "chaos_intensity": chaos_intensity,
        },
        metrics={
            "analysis_elapsed_s": analysis.elapsed_s,
            "analysis_files": analysis.files,
            "lint_errors": counts.get("error", 0),
            "lint_warnings": counts.get("warning", 0),
            "static_lock_sites": len(analysis.locks),
            "static_edges": len(analysis.edges),
            "static_cycles": len(analysis.cycles),
            "storm_plain_s": plain_s,
            "storm_instrumented_s": instrumented_s,
            "storm_errors": storm_errors,
            "sanitizer_overhead_pct": overhead_pct,
            "overhead_within_budget": overhead_pct < OVERHEAD_BUDGET_PCT,
            "dynamic_lock_sites": crosscheck.dynamic_sites,
            "dynamic_acquires": crosscheck.dynamic_acquires,
            "dynamic_edges": len(crosscheck.dynamic_edges),
            "dynamic_cycles": len(crosscheck.dynamic_cycles),
            "unmatched_edges": len(crosscheck.unmatched_edges),
            "chaos_ok": chaos_ok,
            "consistent": crosscheck.consistent,
            "deadlock_free": crosscheck.deadlock_free,
            "ok": (crosscheck.consistent and crosscheck.deadlock_free
                   and chaos_ok and not analysis.cycles
                   and storm_errors == 0
                   and overhead_pct < OVERHEAD_BUDGET_PCT),
        },
        artifacts={"crosscheck": crosscheck.to_dict()},
    )
    if out is not None:
        report.write(out)
    return report

"""The event-store benchmark: durability overhead on the ticket storm.

``run_store_benchmark`` answers the acceptance question of the durable
store PR with one :class:`~repro.experiments.schema.ExperimentReport`
(``BENCH_store.json``): what does persisting every session's full
forensic trail into WAL-mode SQLite cost, relative to the in-memory
store, on the same sustained thread-mode storm?

Both configurations capture trails — the comparison isolates the *SQLite
write path* (one ``BEGIN IMMEDIATE`` transaction per session), not trail
assembly. Min-of-N elapsed per configuration, because scheduler noise on
a sub-second storm otherwise dominates; the gate is
``overhead_pct <= 10``. The report also proves the durability claim in
passing: after the timed runs, the newest persisted trail is re-read
from the database and its hash chains re-verified.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional

from repro.experiments.schema import ExperimentReport

__all__ = ["run_store_benchmark", "STORE_OVERHEAD_BUDGET_PCT"]

#: Acceptance ceiling: SQLite persistence may cost at most this much
#: throughput versus the in-memory store.
STORE_OVERHEAD_BUDGET_PCT = 10.0


def run_store_benchmark(tickets: int = 240, seed: int = 11,
                        duplicate_rate: float = 0.9, shards: int = 2,
                        pool_size: int = 2, repeats: int = 3,
                        out: Optional[str] = None) -> ExperimentReport:
    """Measure MemoryStore vs SQLiteStore on the same storm."""
    from repro.errors import IntegrityError
    from repro.store import SQLiteStore, verify_trail
    from repro.workload.storm import generate_storm, run_storm_sharded

    storm = generate_storm(n=tickets, seed=seed,
                           duplicate_rate=duplicate_rate)
    # one unmeasured warmup absorbs classifier/cache cold starts
    run_storm_sharded(storm, shards=shards, pool_size=pool_size,
                      workers="thread")
    memory_runs = []
    storm_errors = 0
    for _ in range(max(1, repeats)):
        report = run_storm_sharded(storm, shards=shards,
                                   pool_size=pool_size, workers="thread")
        memory_runs.append(report.elapsed_s)
        storm_errors += report.errors

    db_path = os.path.join(tempfile.mkdtemp(prefix="repro-store-bench-"),
                           "bench.db")
    sqlite_runs = []
    store = SQLiteStore(db_path)
    try:
        for _ in range(max(1, repeats)):
            # one plane per repetition, all against the same database:
            # boot epochs keep the session ids collision-free
            report = run_storm_sharded(storm, shards=shards,
                                       pool_size=pool_size,
                                       workers="thread", store=store)
            sqlite_runs.append(report.elapsed_s)
            storm_errors += report.errors
        counts = store.counts()
        newest = store.sessions(limit=1)
        chains_verified = False
        if newest:
            trail = store.get_trail(newest[0].session_id)
            try:
                verify_trail(trail)
                chains_verified = True
            except IntegrityError:
                chains_verified = False
    finally:
        store.close()

    memory_s = min(memory_runs)
    sqlite_s = min(sqlite_runs)
    overhead_pct = 100.0 * (sqlite_s / memory_s - 1.0)
    report = ExperimentReport(
        name="store-overhead",
        params={
            "tickets": tickets, "seed": seed,
            "duplicate_rate": duplicate_rate, "shards": shards,
            "pool_size": pool_size, "repeats": repeats,
        },
        metrics={
            "memory_elapsed_s": memory_s,
            "sqlite_elapsed_s": sqlite_s,
            "memory_tickets_per_s": tickets / memory_s,
            "sqlite_tickets_per_s": tickets / sqlite_s,
            "overhead_pct": overhead_pct,
            "storm_errors": storm_errors,
            # a rate measured on failed tickets is no overhead figure
            "overhead_within_budget": (
                storm_errors == 0
                and overhead_pct <= STORE_OVERHEAD_BUDGET_PCT),
            "sessions_persisted": counts["sessions"],
            "audit_events_persisted": counts["audit_events"],
            "chains_verified": chains_verified,
        },
        artifacts={
            "memory_runs_s": list(memory_runs),
            "sqlite_runs_s": list(sqlite_runs),
            "db_path": db_path,
        })
    if out:
        report.write(out)
    return report

"""Lifecycle regressions: the submit/close race, errored-ticket state,
per-plane metric isolation, worker-crash fail-closed behavior, and
crash-restart durability of the event store."""

import os
import signal
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, wait

import pytest

from repro.controlplane import ControlPlane
from repro.errors import (
    IntegrityError,
    InvalidArgument,
    ShuttingDown,
    WorkerCrashed,
)
from repro.framework.tickets import TicketStatus

MACHINES = ("ws-01", "ws-02", "ws-03", "ws-04")
USERS = ("alice", "bob")
ADMIN = "it-bob"
TEXT = "matlab license expired"


def make_plane(**kwargs):
    kwargs.setdefault("machines", MACHINES)
    kwargs.setdefault("users", USERS)
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("pool_size", 1)
    plane = ControlPlane(**kwargs).start()
    plane.register_admin(ADMIN)
    return plane


def _dawdling_ops(shell, client):
    """Module-level (picklable) session body slow enough to be killed in."""
    shell.hostname()
    time.sleep(0.2)


class TestSubmitCloseRace:
    """Regression: ``submit`` used to check ``_closed`` outside the lock,
    so a ticket could be enqueued *behind* the shutdown sentinel and its
    future would pend forever. Now close() waits out in-flight admissions
    before the sentinel, so every admitted future completes."""

    def test_racing_submit_never_strands_a_future(self):
        self._race(workers="thread")

    def test_racing_submit_never_strands_a_future_with_processes(self):
        self._race(workers="process")

    def _race(self, workers):
        for _ in range(15):
            plane = make_plane(queue_depth=16, workers=workers)
            futures = []
            go = threading.Event()

            def submitter(user):
                go.wait()
                for i in range(4):
                    machine = MACHINES[i % len(MACHINES)]
                    try:
                        futures.append(
                            plane.submit(user, TEXT, machine, ADMIN))
                    except InvalidArgument:
                        return  # lost the race to close(): acceptable

            threads = [threading.Thread(target=submitter, args=(u,))
                       for u in USERS * 2]
            for t in threads:
                t.start()
            go.set()  # closer races the submitters from the first ticket
            plane.close()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            # the contract: every future that submit() returned settles —
            # served normally or failed with ShuttingDown, never pending
            done, pending = wait(futures, timeout=30,
                                 return_when=FIRST_EXCEPTION)
            assert not pending
            for future in futures:
                try:
                    assert future.result(timeout=0).ticket_id > 0
                except ShuttingDown:
                    pass

    def test_submit_after_close_raises(self):
        plane = make_plane()
        plane.close()
        with pytest.raises(InvalidArgument):
            plane.submit("alice", TEXT, "ws-01", ADMIN)
        with pytest.raises(InvalidArgument):
            plane.try_submit("alice", TEXT, "ws-01", ADMIN)
        with pytest.raises(InvalidArgument):
            plane.submit_many([("alice", TEXT, "ws-01")], ADMIN)

    def test_submit_before_start_raises(self):
        plane = ControlPlane(machines=MACHINES, users=USERS, shards=1)
        with pytest.raises(InvalidArgument):
            plane.submit("alice", TEXT, "ws-01", ADMIN)
        plane.close()

    def test_close_is_idempotent_and_reentrant(self):
        plane = make_plane()
        plane.submit("alice", TEXT, "ws-01", ADMIN).result(timeout=30)
        plane.close()
        plane.close()
        assert plane.stats()["closed"]
        assert not plane.workers_alive()


class TestErroredTicketState:
    """Regression: ``_serve`` resolved the org's ticket unconditionally,
    so a session that died mid-ops still closed the ticket as RESOLVED."""

    def test_errored_session_leaves_ticket_unresolved(self):
        def exploding_ops(shell, client):
            raise IntegrityError("session aborted mid-ops")

        plane = make_plane(shards=1)
        try:
            result = plane.submit("alice", TEXT, "ws-01", ADMIN,
                                  ops=exploding_ops).result(timeout=30)
            assert not result.resolved
            assert "IntegrityError" in (result.error or "")
            shard = plane.router.route("ws-01")
            ticket = shard.org.tickets.get(result.ticket_id)
            assert ticket.status is TicketStatus.ASSIGNED
            assert ticket.status is not TicketStatus.RESOLVED
        finally:
            plane.close()

    def test_successful_session_still_resolves_ticket(self):
        plane = make_plane(shards=1)
        try:
            result = plane.submit("alice", TEXT, "ws-01",
                                  ADMIN).result(timeout=30)
            assert result.resolved
            shard = plane.router.route("ws-01")
            ticket = shard.org.tickets.get(result.ticket_id)
            assert ticket.status is TicketStatus.RESOLVED
        finally:
            plane.close()

    def test_errored_outcome_lands_on_the_errored_counter(self):
        def exploding_ops(shell, client):
            raise IntegrityError("boom")

        plane = make_plane(shards=1)
        try:
            plane.submit("alice", TEXT, "ws-01", ADMIN,
                         ops=exploding_ops).result(timeout=30)
            assert plane.metrics.total("controlplane_tickets_served",
                                       outcome="errored") == 1
            assert plane.metrics.total("controlplane_tickets_served",
                                       outcome="resolved") == 0
        finally:
            plane.close()


class TestPerPlaneMetricIsolation:
    """Regression: ``pool_hit_rate`` read the process-global registry, so
    two co-resident planes blended each other's acquire counters."""

    def test_two_planes_report_independent_hit_rates(self):
        warm = make_plane(shards=1)
        cold = make_plane(shards=1)
        try:
            warm.prewarm(["T-1"])
            warm.submit("alice", TEXT, "ws-01", ADMIN).result(timeout=30)
            cold.submit("bob", TEXT, "ws-01", ADMIN).result(timeout=30)
            # warm plane leased from its prewarmed pool: all hits; the
            # cold plane's first acquire is necessarily a miss
            assert warm.pool_hit_rate() == 1.0
            assert cold.pool_hit_rate() == 0.0
        finally:
            warm.close()
            cold.close()

    def test_every_controlplane_series_carries_the_plane_label(self):
        from repro import obs

        plane = make_plane(shards=1)
        try:
            plane.submit("alice", TEXT, "ws-01", ADMIN).result(timeout=30)
            series = [m for m in obs.registry()
                      if m.name.startswith("controlplane_")]
            assert series
            for metric in series:
                assert dict(metric.labels).get("plane") == plane.plane_id
        finally:
            plane.close()

    def test_plane_ids_are_unique(self):
        a = ControlPlane(machines=MACHINES, users=USERS, shards=1)
        b = ControlPlane(machines=MACHINES, users=USERS, shards=1)
        assert a.plane_id != b.plane_id
        a.close()
        b.close()


class TestWorkerCrashSafety:
    """Fail-closed contract of process-mode workers: a worker killed
    mid-storm must settle *every* submitted future with a typed error —
    never leave one pending — while the plane stays drainable, closable,
    and keeps serving on the surviving shards."""

    def _kill_one_worker(self, plane):
        """SIGKILL the lowest-indexed worker; returns its shard index."""
        pids = plane.worker_pids()
        victim = min(pids)
        os.kill(pids[victim], signal.SIGKILL)
        return victim

    def test_kill_mid_storm_settles_every_future_with_typed_errors(self):
        plane = make_plane(workers="process", queue_depth=256)
        try:
            futures = plane.submit_many(
                [("alice", TEXT, m) for m in MACHINES * 4], ADMIN,
                ops=_dawdling_ops)
            time.sleep(0.3)  # let both workers get mid-session
            victim = self._kill_one_worker(plane)
            done, pending = wait(futures, timeout=30,
                                 return_when=FIRST_EXCEPTION)
            # the core contract: nothing hangs — wait() above returns on
            # the first WorkerCrashed, the rest must settle promptly too
            deadline = time.monotonic() + 30
            for future in futures:
                timeout = max(0.0, deadline - time.monotonic())
                try:
                    result = future.result(timeout=timeout)
                    assert result.resolved
                except WorkerCrashed as exc:
                    assert exc.shard == victim
                    assert exc.exitcode == -signal.SIGKILL
            assert any(f.exception() is not None for f in futures)
        finally:
            plane.close()

    def test_crash_flips_workers_alive_and_reports_the_shard(self):
        plane = make_plane(workers="process")
        try:
            assert plane.workers_alive()
            victim = self._kill_one_worker(plane)
            deadline = time.monotonic() + 10
            while not plane.crashed_shards() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not plane.workers_alive()
            assert plane.crashed_shards() == [victim]
            assert not plane.stats()["workers_alive"]
            assert plane.metrics.total(
                "controlplane_worker_crashes_total") == 1
        finally:
            plane.close()

    def test_submit_to_crashed_shard_fails_fast_not_hangs(self):
        plane = make_plane(workers="process")
        try:
            victim = self._kill_one_worker(plane)
            deadline = time.monotonic() + 10
            while not plane.crashed_shards() and time.monotonic() < deadline:
                time.sleep(0.02)
            dead = next(m for m in MACHINES
                        if plane.router.route_index(m) == victim)
            started = time.monotonic()
            future = plane.submit("alice", TEXT, dead, ADMIN)
            with pytest.raises(WorkerCrashed):
                future.result(timeout=5)
            assert time.monotonic() - started < 5  # fail-fast, no hang
        finally:
            plane.close()

    def test_surviving_shards_keep_serving_and_plane_drains(self):
        plane = make_plane(workers="process")
        try:
            victim = self._kill_one_worker(plane)
            deadline = time.monotonic() + 10
            while not plane.crashed_shards() and time.monotonic() < deadline:
                time.sleep(0.02)
            alive = next(m for m in MACHINES
                         if plane.router.route_index(m) != victim)
            result = plane.submit("alice", TEXT, alive,
                                  ADMIN).result(timeout=30)
            assert result.resolved
            plane.drain()  # must return, not hang on the dead shard
        finally:
            plane.close()
        stats = plane.stats()
        assert stats["closed"]
        assert stats["completed"] == stats["submitted"]

    def test_thread_mode_has_no_worker_processes(self):
        plane = make_plane(workers="thread")
        try:
            assert plane.worker_pids() == {}
            assert plane.crashed_shards() == []
        finally:
            plane.close()


class TestCrashRestartDurability:
    """The durability contract under violence: SIGKILL a process worker
    mid-storm, then restart a fresh plane on the same SQLite file. Every
    session committed before the kill must replay bit-for-bit — chain
    verification included — and no torn (partial) session may exist."""

    def _kill_one_worker(self, plane):
        pids = plane.worker_pids()
        victim = min(pids)
        os.kill(pids[victim], signal.SIGKILL)
        return victim

    def test_committed_sessions_replay_bit_for_bit_after_restart(
            self, tmp_path):
        from repro.store import SQLiteStore, verify_trail

        path = tmp_path / "durable.db"
        store = SQLiteStore(path)
        plane = make_plane(workers="process", queue_depth=256,
                           store=store, org="acme")
        futures = plane.submit_many(
            [("alice", TEXT, m) for m in MACHINES * 4], ADMIN,
            ops=_dawdling_ops)
        time.sleep(0.3)  # let both workers get mid-session
        self._kill_one_worker(plane)
        served = []
        for future in futures:
            try:
                served.append(future.result(timeout=30))
            except WorkerCrashed:
                pass
        plane.close()  # graceful close flushes the store

        # snapshot what the first life committed, then release the file
        before = {s.session_id: store.get_trail(s.session_id)
                  for s in store.sessions()}
        first_boot = plane.boot
        store.close()
        # every successfully served ticket's trail was committed
        for result in served:
            assert result.session_id in before

        # a new life on the same file: replay must match the snapshot
        reopened = SQLiteStore(path)
        second = make_plane(workers="process", store=reopened, org="acme")
        try:
            assert second.boot > first_boot
            for session_id, snapshot in before.items():
                replayed = reopened.get_trail(session_id)
                assert replayed == snapshot          # bit-for-bit
                verify_trail(replayed)               # chains intact
            # no torn writes: every session is complete — its ticket row
            # exists and every audit event it counted is present
            for row in reopened.sessions():
                trail = reopened.get_trail(row.session_id)
                assert trail.ticket is not None
                assert len(trail.events) == row.audit_records
            # the restarted plane serves and persists without colliding
            result = second.submit("alice", TEXT, "ws-01",
                                   ADMIN).result(timeout=60)
            assert result.session_id not in before
            assert reopened.get_trail(result.session_id) is not None
        finally:
            second.close()
            reopened.close()

"""Process-mode shard workers: serving parity with thread mode, typed
error marshalling across the process boundary, metrics fold-back, and a
start/drain/close soak that proves no child process ever leaks."""

import os
import time

import pytest

from repro.controlplane import ControlPlane
from repro.errors import FileNotFound, InvalidArgument, ReproError

MACHINES = ("ws-01", "ws-02", "ws-03", "ws-04")
USERS = ("alice", "bob")
ADMIN = "it-duty"
TEXT = "matlab license expired"


def make_plane(**kwargs):
    kwargs.setdefault("machines", MACHINES)
    kwargs.setdefault("users", USERS)
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("pool_size", 1)
    kwargs.setdefault("workers", "process")
    return ControlPlane(**kwargs)


def _bad_path_ops(shell, client):
    """Module-level ops raising a taxonomy error inside the session."""
    shell.read_file("/definitely/not/there")


def _foreign_bug_ops(shell, client):
    """Module-level ops raising an exception outside the taxonomy."""
    raise ValueError("session body bug")


def _reaped(pid):
    """True when ``pid`` no longer exists (the child was waited on)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class _ParityCases:
    """Serving cases that do not depend on the worker mode; each subclass
    runs them on a plane of its own mode."""

    WORKERS = ""

    @pytest.fixture(scope="class")
    def plane(self):
        plane = make_plane(workers=self.WORKERS).start()
        plane.register_admin(ADMIN)
        yield plane
        plane.close()

    def test_submit_serves_a_full_session(self, plane):
        result = plane.submit("alice", TEXT, machine="ws-01",
                              admin=ADMIN).result(timeout=60)
        assert result.resolved and result.error is None
        assert result.machine == "ws-01" and result.admin == ADMIN
        assert result.audit_records > 0
        assert result.latency_s >= result.duration_s > 0

    def test_submit_many_keeps_order_and_routing(self, plane):
        futures = plane.submit_many(
            [("alice", TEXT, m) for m in MACHINES], ADMIN)
        results = [f.result(timeout=60) for f in futures]
        assert [r.machine for r in results] == list(MACHINES)
        assert all(r.resolved for r in results)
        by_machine = {r.machine: r.shard for r in results}
        for machine, shard in by_machine.items():
            assert shard == plane.router.route_index(machine)

    def test_second_lease_hits_the_worker_side_pool(self, plane):
        plane.submit("alice", TEXT, machine="ws-02",
                     admin=ADMIN).result(timeout=60)
        second = plane.submit("bob", TEXT, machine="ws-02",
                              admin=ADMIN).result(timeout=60)
        assert second.pool_hit

    def test_unknown_machine_rejected_parent_side(self, plane):
        with pytest.raises(InvalidArgument):
            plane.submit("alice", "help", machine="ws-99", admin=ADMIN)

    def test_taxonomy_error_in_ops_stays_in_the_result(self, plane):
        result = plane.submit("alice", TEXT, machine="ws-01", admin=ADMIN,
                              ops=_bad_path_ops).result(timeout=60)
        assert not result.resolved
        assert "FileNotFound" in result.error
        # marshalling must not stack errno prefixes across the boundary
        assert result.error.count("[ENOENT]") <= 1

    def test_per_ticket_metrics_fold_back_live(self, plane):
        before = plane.metrics.total("controlplane_tickets_served")
        plane.submit("alice", TEXT, machine="ws-03",
                     admin=ADMIN).result(timeout=60)
        plane.drain()
        after = plane.metrics.total("controlplane_tickets_served")
        assert after == before + 1
        assert plane.pool_hit_rate() > 0

    def test_per_ticket_series_count_each_settled_ticket_once(self):
        # a plane of its own, so every count starts from zero
        plane = make_plane(workers=self.WORKERS).start()
        plane.register_admin(ADMIN)
        try:
            futures = plane.submit_many(
                [("alice", TEXT, m) for m in MACHINES * 2], ADMIN)
            futures.append(plane.submit("bob", TEXT, machine="ws-01",
                                        admin=ADMIN, ops=_bad_path_ops))
            plane.drain()
            settled = [f.result(timeout=0) for f in futures]
        finally:
            plane.close()
        assert not settled[-1].resolved  # errored sessions count too
        assert plane.metrics.total(
            "controlplane_tickets_served") == len(settled)
        assert (plane.metrics.total("controlplane_pool_acquires",
                                    outcome="hit")
                + plane.metrics.total("controlplane_pool_acquires",
                                      outcome="miss")) == len(settled)


class TestServingParity(_ParityCases):
    """The same storm answered identically by both worker modes: the
    process-mode half, plus what only process workers have."""

    WORKERS = "process"

    def test_foreign_exception_degrades_to_typed_repro_error(self, plane):
        future = plane.submit("alice", TEXT, machine="ws-01", admin=ADMIN,
                              ops=_foreign_bug_ops)
        with pytest.raises(ReproError, match="ValueError: session body bug"):
            future.result(timeout=60)

    def test_worker_pids_are_live_children(self, plane):
        pids = plane.worker_pids()
        assert len(pids) == len(plane.router.plans)
        for pid in pids.values():
            assert pid is not None and not _reaped(pid)


class TestServingParityThreads(_ParityCases):
    """The thread-mode half of the parity cases."""

    WORKERS = "thread"

    def test_foreign_exception_reaches_the_caller_raw(self, plane):
        future = plane.submit("alice", TEXT, machine="ws-01", admin=ADMIN,
                              ops=_foreign_bug_ops)
        with pytest.raises(ValueError, match="session body bug"):
            future.result(timeout=60)


class TestRegistrationAndPrewarm:
    def test_registrations_before_start_are_deferred_to_workers(self):
        plane = make_plane()
        plane.register_admin(ADMIN)       # no workers exist yet
        plane.register_user("carol")
        plane.start()
        try:
            result = plane.submit("carol", TEXT, machine="ws-01",
                                  admin=ADMIN).result(timeout=60)
            assert result.resolved
        finally:
            plane.close()

    def test_prewarm_warms_every_worker(self):
        plane = make_plane().start()
        plane.register_admin(ADMIN)
        try:
            warmed = plane.prewarm(["T-1"])
            assert warmed == len(MACHINES)  # pool_size=1: one per machine
            result = plane.submit("alice", TEXT, machine="ws-01",
                                  admin=ADMIN).result(timeout=60)
            assert result.pool_hit  # the prewarmed lease was used
        finally:
            plane.close()

    def test_prewarm_before_start_rejected(self):
        plane = make_plane()
        with pytest.raises(InvalidArgument):
            plane.prewarm(["T-1"])
        plane.close()


class TestExitFoldback:
    def test_worker_private_series_survive_close(self):
        plane = make_plane(shards=1).start()
        plane.register_admin(ADMIN)
        plane.submit("alice", TEXT, machine="ws-01",
                     admin=ADMIN).result(timeout=60)
        served_before_close = plane.metrics.total(
            "controlplane_tickets_served")
        plane.close()
        # per-ticket series were folded live and must NOT double on exit
        assert plane.metrics.total(
            "controlplane_tickets_served") == served_before_close == 1
        # worker-side-only series (classifier memo, pool lifecycle) only
        # exist parent-side via the WorkerExit fold
        assert plane.metrics.total("controlplane_classify_memo") > 0
        assert plane.metrics.total("controlplane_pool_releases") > 0


class TestProcessSoak:
    """Repeated full lifecycles must never leak a child process."""

    CYCLES = 3

    def test_start_drain_close_cycles_reap_every_child(self):
        seen_pids = []
        for cycle in range(self.CYCLES):
            plane = make_plane(queue_depth=32)
            plane.register_admin(ADMIN)
            plane.start()
            pids = plane.worker_pids()
            assert len(pids) == len(plane.router.plans)
            seen_pids.extend(pids.values())
            futures = plane.submit_many(
                [("alice", TEXT, m) for m in MACHINES * 2], ADMIN)
            plane.drain()
            assert all(f.result(timeout=0).resolved for f in futures)
            plane.close()
            for pid in pids.values():
                assert _reaped(pid), (
                    f"cycle {cycle}: worker {pid} outlived close()")
        # distinct processes every cycle, all of them reaped at the end
        assert len(seen_pids) == len(set(seen_pids))
        deadline = time.monotonic() + 5
        while (not all(_reaped(p) for p in seen_pids)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert all(_reaped(p) for p in seen_pids)

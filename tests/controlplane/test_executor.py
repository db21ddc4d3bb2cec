"""ControlPlane executor: admission, backpressure, drain, error paths."""

import threading
import time

import pytest

from repro.api import TicketResult
from repro.controlplane import ControlPlane
from repro.errors import InvalidArgument, ReproError
from repro.framework.tickets import Role

MACHINES = ("ws-01", "ws-02", "ws-03", "ws-04")
USERS = ("alice", "bob")
ADMIN = "it-duty"


@pytest.fixture(scope="module")
def plane():
    plane = ControlPlane(machines=MACHINES, users=USERS, shards=2,
                         pool_size=1)
    plane.register_admin(ADMIN)
    plane.start()
    yield plane
    plane.close()


class TestAdmission:
    def test_submit_serves_a_full_session(self, plane):
        future = plane.submit("alice", "matlab license expired",
                              machine="ws-01", admin=ADMIN)
        result = future.result(timeout=30)
        assert isinstance(result, TicketResult)
        assert result.resolved and result.error is None
        assert result.machine == "ws-01" and result.admin == ADMIN
        assert result.shard is not None
        assert result.audit_records > 0

    def test_submit_many_returns_futures_in_order(self, plane):
        tickets = [("alice", "matlab license expired", m) for m in MACHINES]
        futures = plane.submit_many(tickets, ADMIN)
        assert len(futures) == len(tickets)
        results = [f.result(timeout=30) for f in futures]
        assert [r.machine for r in results] == list(MACHINES)
        assert all(r.resolved for r in results)

    def test_same_machine_routes_to_same_shard(self, plane):
        futures = [plane.submit("alice", "matlab license expired",
                                machine="ws-02", admin=ADMIN)
                   for _ in range(3)]
        shards = {f.result(timeout=30).shard for f in futures}
        assert len(shards) == 1

    def test_second_lease_hits_the_warm_pool(self, plane):
        first = plane.submit("alice", "matlab license expired",
                             machine="ws-03", admin=ADMIN).result(timeout=30)
        second = plane.submit("bob", "matlab license expired",
                              machine="ws-03", admin=ADMIN).result(timeout=30)
        assert first.ticket_class == second.ticket_class
        assert second.pool_hit

    def test_unknown_machine_rejected(self, plane):
        with pytest.raises(InvalidArgument):
            plane.submit("alice", "help", machine="ws-99", admin=ADMIN)

    def test_drain_completes_everything_submitted(self, plane):
        tickets = [("bob", "cannot reach shared storage", m)
                   for m in MACHINES * 2]
        futures = plane.submit_many(tickets, ADMIN)
        plane.drain()
        assert all(f.done() for f in futures)
        assert plane.completed >= plane.submitted - len(tickets) + len(tickets)


class TestErrorPaths:
    def test_repro_error_in_ops_yields_unresolved_result(self, plane):
        def bad_ops(shell, client):
            shell.read_file("/definitely/not/there")

        result = plane.submit("alice", "matlab license expired",
                              machine="ws-01", admin=ADMIN,
                              ops=bad_ops).result(timeout=30)
        assert not result.resolved
        assert "FileNotFound" in result.error

    def test_foreign_exception_propagates_through_future(self, plane):
        def broken_ops(shell, client):
            raise ValueError("session body bug")

        future = plane.submit("alice", "matlab license expired",
                              machine="ws-01", admin=ADMIN, ops=broken_ops)
        with pytest.raises(ValueError, match="session body bug"):
            future.result(timeout=30)

    def test_session_error_still_releases_the_container(self, plane):
        def bad_ops(shell, client):
            raise ReproError("boom")

        plane.submit("alice", "matlab license expired", machine="ws-04",
                     admin=ADMIN, ops=bad_ops).result(timeout=30)
        # the lease was returned: the next session on ws-04 reuses it
        result = plane.submit("bob", "matlab license expired",
                              machine="ws-04", admin=ADMIN).result(timeout=30)
        assert result.resolved and result.pool_hit


class TestLifecycle:
    def test_queue_depth_validated(self):
        with pytest.raises(InvalidArgument):
            ControlPlane(machines=MACHINES, queue_depth=0)

    def test_submit_before_start_rejected(self):
        plane = ControlPlane(machines=MACHINES, users=USERS, shards=1)
        with pytest.raises(InvalidArgument):
            plane.submit("alice", "help", machine="ws-01", admin=ADMIN)
        plane.close()

    def test_submit_after_close_rejected(self):
        plane = ControlPlane(machines=MACHINES, users=USERS, shards=1)
        plane.start()
        plane.close()
        with pytest.raises(InvalidArgument):
            plane.submit("alice", "help", machine="ws-01", admin=ADMIN)
        with pytest.raises(InvalidArgument):
            plane.submit_many([("alice", "help", "ws-01")], ADMIN)

    def test_close_is_idempotent(self):
        plane = ControlPlane(machines=MACHINES, users=USERS, shards=1)
        plane.start()
        plane.close()
        plane.close()

    def test_context_manager_starts_and_closes(self):
        with ControlPlane(machines=MACHINES, users=USERS, shards=1,
                          pool_size=0) as plane:
            plane.register_admin(ADMIN)
            result = plane.submit("alice", "matlab license expired",
                                  machine="ws-01",
                                  admin=ADMIN).result(timeout=30)
            assert result.resolved

    def test_prewarm_warms_every_shard(self):
        with ControlPlane(machines=MACHINES, users=USERS, shards=2,
                          pool_size=1) as plane:
            plane.register_admin(ADMIN)
            warmed = plane.prewarm(["T-1"])
            assert warmed == len(MACHINES)  # one per machine at pool_size=1


class TestBackpressure:
    def test_try_submit_rejects_when_shard_is_backlogged(self):
        plane = ControlPlane(machines=("ws-01",), users=USERS, shards=1,
                             pool_size=1, queue_depth=1)
        plane.register_admin(ADMIN)
        plane.start()
        occupied = threading.Event()
        release = threading.Event()

        def slow_ops(shell, client):
            occupied.set()
            release.wait(timeout=30)

        try:
            blocker = plane.submit("alice", "matlab license expired",
                                   machine="ws-01", admin=ADMIN,
                                   ops=slow_ops)
            assert occupied.wait(timeout=30)  # worker is busy in slow_ops
            queued = plane.try_submit("bob", "matlab license expired",
                                      machine="ws-01", admin=ADMIN)
            assert queued is not None  # fills the depth-1 queue
            rejected = plane.try_submit("bob", "matlab license expired",
                                        machine="ws-01", admin=ADMIN)
            assert rejected is None  # backpressure: queue full
        finally:
            release.set()
            plane.drain()
            plane.close()
        assert blocker.result(timeout=30).resolved
        assert queued.result(timeout=30).resolved

    def test_try_submit_requires_a_serving_plane(self):
        plane = ControlPlane(machines=("ws-01",), users=USERS, shards=1)
        with pytest.raises(InvalidArgument):
            plane.try_submit("alice", "help", machine="ws-01", admin=ADMIN)
        plane.close()


class TestOneServingThread:
    """Thread mode serves every shard from one thread: tickets and control
    ops never run concurrently with another ticket."""

    def test_control_waits_for_the_ticket_being_served(self):
        occupied = threading.Event()
        release = threading.Event()
        registered = threading.Event()

        def pinned_ops(shell, client):
            occupied.set()
            release.wait(timeout=30)

        plane = ControlPlane(machines=MACHINES, users=USERS, shards=2,
                             pool_size=1)
        plane.register_admin(ADMIN)
        plane.start()
        try:
            blocker = plane.submit("alice", "matlab license expired",
                                   machine="ws-01", admin=ADMIN,
                                   ops=pinned_ops)
            assert occupied.wait(timeout=30)
            registrar = threading.Thread(
                target=lambda: (plane.register_user("carol"),
                                registered.set()))
            registrar.start()
            # the organization is mid-session: the registration must wait
            assert not registered.wait(timeout=0.5)
            release.set()
            assert registered.wait(timeout=30)
            registrar.join(timeout=30)
            assert blocker.result(timeout=30).resolved
        finally:
            release.set()
            plane.close()
        assert all(shard.org.tickets.role_of("carol") == Role.END_USER
                   for shard in plane.router.shards)

    def test_thread_mode_tickets_never_interleave(self):
        machines = tuple(f"ws-{i:02d}" for i in range(1, 9))
        guard = threading.Lock()
        inside = [0]
        peak = [0]
        entries = [0]

        def counting_ops(shell, client):
            with guard:
                inside[0] += 1
                entries[0] += 1
                peak[0] = max(peak[0], inside[0])
            time.sleep(0.002)  # releases the GIL mid-session
            with guard:
                inside[0] -= 1

        with ControlPlane(machines=machines, users=USERS, shards=4,
                          pool_size=1) as plane:
            plane.register_admin(ADMIN)
            tickets = [("alice", "matlab license expired", m)
                       for m in machines * 4]
            assert {plane.router.route_index(m) for m in machines} == {
                0, 1, 2, 3}
            futures = plane.submit_many(tickets, ADMIN, ops=counting_ops)
            plane.drain()
            results = [f.result(timeout=30) for f in futures]
            served = plane.metrics.total("controlplane_tickets_served")
        assert peak[0] == 1
        assert entries[0] == len(tickets) == served == plane.completed
        assert all(r.resolved for r in results)
        assert len({r.session_id for r in results}) == len(tickets)

    def test_control_from_a_session_body_fails_fast(self):
        raised = []

        def registering_ops(shell, client):
            try:
                plane.register_user("dave")
            except InvalidArgument as exc:
                raised.append(exc)

        with ControlPlane(machines=MACHINES, users=USERS, shards=2,
                          pool_size=1) as plane:
            plane.register_admin(ADMIN)
            result = plane.submit("alice", "matlab license expired",
                                  machine="ws-01", admin=ADMIN,
                                  ops=registering_ops).result(timeout=30)
        assert result.resolved
        assert len(raised) == 1 and "serving thread" in str(raised[0])

    def test_control_after_the_serving_thread_stopped_fails_fast(self):
        plane = ControlPlane(machines=MACHINES, users=USERS, shards=2)
        plane.start()
        plane._backend.stop()
        try:
            with pytest.raises(InvalidArgument, match="stopped"):
                plane.register_user("erin")
            assert not plane.workers_alive()
        finally:
            plane.close()

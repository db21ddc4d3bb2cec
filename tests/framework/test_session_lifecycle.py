"""The one session lifecycle over a pooled container source.

Close is the only audit capture point: it reads every leg's live streams
before the pool rotates (or discards) the container, so a pooled
session's trail holds exactly the records its streams held — on the
reuse path and on the discard path alike.
"""

import pytest

from repro.controlplane.pool import ContainerPool
from repro.errors import SessionTerminated
from repro.framework import TicketSession, TicketStatus, WatchITDeployment
from repro.store import verify_trail

MACHINE = "ws-01"
ADMIN = "it-duty"


@pytest.fixture()
def org():
    org = WatchITDeployment.bootstrap(machines=(MACHINE,), users=("alice",))
    org.register_admin(ADMIN)
    org.machines[MACHINE].rootfs.populate(
        {"srv": {"data": {"f.txt": "x"}}})
    return org


@pytest.fixture()
def pool(org):
    pool = ContainerPool(org.cluster, capacity=2)
    yield pool
    pool.close()


def _session(org, pool):
    ticket = org.submit_ticket("alice", "my matlab license expired",
                               machine=MACHINE)
    ticket.classify_as("T-1")
    return TicketSession(org, ticket, ADMIN, pool)


def _trail(session, session_id):
    result, trail = session.settle(session_id=session_id, started=0.0,
                                   org="default", boot=0)
    assert result.audit_records == len(trail.events)
    return trail


def _assert_digest_equal(trail, held):
    for stream, records in held.items():
        assert [e.digest for e in trail.stream_events(stream)] == \
            [r.digest for r in records], stream
    assert len(trail.events) == sum(len(r) for r in held.values())
    verify_trail(trail)


class TestPooledCapture:
    def test_trail_equals_the_written_streams(self, org, pool):
        session = _session(org, pool)
        with session:
            session.client.share_path("/srv/data")
            session.shell.read_file("/srv/data/f.txt")
            container = session.container
            held = {"fs": container.fs_audit.records,
                    "broker": session.legs[0].lease.broker.audit.records}
        assert held["fs"] and held["broker"]
        # released and rotated: the container is clean for the next tenant
        assert len(container.fs_audit) == 0
        assert pool.idle_count(machine=MACHINE) == 1
        assert session.ticket.status is TicketStatus.RESOLVED
        trail = _trail(session, "s-reused")
        _assert_digest_equal(trail, held)
        assert any(e.path == "/srv/data/f.txt" for e in trail.events)

    def test_container_terminated_mid_ops_keeps_its_records(self, org,
                                                            pool):
        session = _session(org, pool)
        with pytest.raises(SessionTerminated):
            with session:
                session.shell.read_file("/home/alice/matlab/license.lic")
                session.client.pb("ps -a")
                container = session.container
                held = {"fs": container.fs_audit.records,
                        "broker": session.legs[0].lease.broker.audit.records}
                container.terminate("killed mid-lease")
                session.shell.read_file("/home/alice/notes.txt")
        assert held["fs"] and held["broker"]
        # discarded, never reused, and nothing it wrote is lost
        assert pool.idle_count(machine=MACHINE) == 0
        assert session.ticket.status is TicketStatus.ASSIGNED
        assert session.error.startswith("SessionTerminated")
        _assert_digest_equal(_trail(session, "s-discarded"), held)
        follow_up = _session(org, pool)
        with follow_up:
            assert follow_up.container is not container
            assert not follow_up.legs[0].lease.pool_hit

    def test_failed_login_releases_the_lease(self, org, pool):
        session = _session(org, pool)
        org.authenticators[MACHINE] = _refuse
        with pytest.raises(PermissionError):
            session.open()
        assert session.error.startswith("PermissionError")
        assert pool.idle_count(machine=MACHINE) == 1
        assert session.ticket.status is TicketStatus.ASSIGNED


def _refuse(_certificate, _admin):
    raise PermissionError("login refused")

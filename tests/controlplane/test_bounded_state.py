"""Memory keeps only what is live: a resolved ticket leaves the ticket
database and its certificates leave the CA, while the event store keeps
their history. An errored session's ticket stays open."""

import pytest

from repro import Deployment
from repro.controlplane import ControlPlane
from repro.errors import TicketError
from repro.framework.tickets import TicketStatus
from repro.workload.storm import STORM_ADMIN, generate_storm

ADMIN = "it-bob"


class TestDrainedStorm:
    def test_shards_hold_no_settled_state(self):
        storm = generate_storm(n=48, seed=3)
        plane = ControlPlane(machines=tuple(sorted({t.machine for t in storm})),
                             users=tuple(sorted({t.reporter for t in storm})),
                             shards=4, pool_size=2, workers="thread")
        try:
            plane.register_admin(STORM_ADMIN)
            plane.start()
            futures = plane.submit_many(
                [(t.reporter, t.text, t.machine) for t in storm], STORM_ADMIN)
            plane.drain()
            results = [f.result(timeout=60) for f in futures]
            assert all(r.resolved for r in results)
            assert len(plane.router.shards) == 4
            for shard in plane.router.shards:
                assert len(shard.org.tickets) == 0
                assert shard.org.certificates._by_ticket == {}
            # the store is the history: one resolved ticket row per ticket
            for result in results:
                trail = plane.store.get_trail(result.session_id)
                assert trail.ticket.status == "RESOLVED"
                assert all(row.revoked for row in trail.certificates)
        finally:
            plane.close()


class TestFacadeTickets:
    @pytest.fixture()
    def deployment(self):
        dep = Deployment.create(machines=("ws-01",), users=("alice",))
        dep.register_admin(ADMIN)
        return dep

    def test_resolved_ticket_leaves_memory(self, deployment):
        tickets = deployment.orchestrator.tickets
        ticket = deployment.submit("alice", "my matlab license expired",
                                   machine="ws-01")
        with deployment.session(ticket, admin=ADMIN) as session:
            assert tickets.get(ticket.ticket_id) is ticket
        assert session.result.resolved
        with pytest.raises(TicketError):
            tickets.get(ticket.ticket_id)
        assert len(tickets) == 0
        assert deployment.orchestrator.certificates._by_ticket == {}

    def test_errored_ticket_stays_assigned(self, deployment):
        tickets = deployment.orchestrator.tickets
        ticket = deployment.submit("alice", "my matlab license expired",
                                   machine="ws-01")
        with pytest.raises(RuntimeError):
            with deployment.session(ticket, admin=ADMIN):
                raise RuntimeError("mid-session failure")
        assert tickets.get(ticket.ticket_id) is ticket
        assert ticket.status is TicketStatus.ASSIGNED
        assert tickets.by_status(TicketStatus.ASSIGNED) == [ticket]
        # its certificates are revoked all the same
        assert deployment.orchestrator.certificates._by_ticket == {}

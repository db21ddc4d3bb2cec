"""Ticket database and role enforcement."""

import pytest

from repro.errors import TicketError
from repro.framework import Role, TicketDatabase, TicketStatus


@pytest.fixture()
def db():
    db = TicketDatabase()
    db.register_person("alice", Role.END_USER)
    db.register_person("it-bob", Role.IT_ADMIN)
    db.register_person("carol", Role.SUPERVISOR)
    return db


class TestSubmission:
    def test_end_user_can_submit(self, db):
        ticket = db.submit("alice", "matlab license expired")
        assert ticket.status is TicketStatus.OPEN
        assert db.get(ticket.ticket_id) is ticket

    def test_it_admin_cannot_submit(self, db):
        # Table 1 attack 9: fake tickets
        with pytest.raises(TicketError):
            db.submit("it-bob", "need access to the finance share")

    def test_unknown_person_defaults_to_end_user(self, db):
        assert db.submit("mallory-user", "printer jam").reporter == "mallory-user"

    def test_empty_text_rejected(self, db):
        with pytest.raises(TicketError):
            db.submit("alice", "   ")

    def test_supervisor_can_submit(self, db):
        assert db.submit("carol", "quarterly audit prep").reporter == "carol"


class TestLifecycle:
    def test_classify_then_assign(self, db):
        ticket = db.submit("alice", "vpn broken")
        ticket.classify_as("T-4", reviewed=True)
        ticket.assign_to("it-bob")
        assert ticket.status is TicketStatus.ASSIGNED
        assert ticket.assignee == "it-bob"

    def test_assign_unclassified_rejected(self, db):
        ticket = db.submit("alice", "vpn broken")
        with pytest.raises(TicketError):
            ticket.assign_to("it-bob")

    def test_resolve(self, db):
        ticket = db.submit("alice", "x problem")
        ticket.classify_as("T-11")
        ticket.assign_to("it-bob")
        db.resolve(ticket)
        assert ticket.status is TicketStatus.RESOLVED
        # the database keeps open tickets only; the store keeps history
        with pytest.raises(TicketError):
            db.get(ticket.ticket_id)
        assert len(db) == 0

    def test_queries(self, db):
        a = db.submit("alice", "one issue here")
        b = db.submit("alice", "two issue there")
        a.classify_as("T-1")
        assert db.by_class("T-1") == [a]
        assert b in db.by_status(TicketStatus.OPEN)
        assert len(db) == 2

    def test_get_missing_raises(self, db):
        with pytest.raises(TicketError):
            db.get(999999)

"""The stable public facade: Deployment / Session / TicketResult."""

import sqlite3

import pytest

from repro import Deployment, Session, TicketResult
from repro.errors import AccessBlocked, TicketError

ADMIN = "it-bob"


@pytest.fixture(scope="module")
def deployment():
    dep = Deployment.create(machines=("ws-01", "ws-02"),
                            users=("alice", "bob"))
    dep.register_admin(ADMIN)
    return dep


class TestSessionLifecycle:
    def test_clean_session_resolves(self, deployment):
        ticket = deployment.submit("alice", "my matlab license expired",
                                   machine="ws-01")
        with deployment.session(ticket, admin=ADMIN) as session:
            assert session.shell.hostname()
            assert session.client.pb("ps -a").ok
            container = session.container
            assert container.active
        assert not container.active          # torn down on exit
        result = session.result
        assert isinstance(result, TicketResult)
        assert result.resolved and result.error is None
        assert result.ticket_id == ticket.ticket_id
        assert result.ticket_class == ticket.predicted_class
        assert result.audit_records > 0
        assert result.duration_s > 0

    def test_raising_body_still_tears_down(self, deployment):
        ticket = deployment.submit("alice", "my matlab license expired",
                                   machine="ws-01")
        with pytest.raises(RuntimeError, match="mid-session"):
            with deployment.session(ticket, admin=ADMIN) as session:
                container = session.container
                raise RuntimeError("mid-session failure")
        # the exception propagated AND the teardown ran
        assert not container.active
        assert not session.result.resolved
        assert "RuntimeError: mid-session failure" in session.result.error

    def test_session_surface_closed_outside_the_block(self, deployment):
        ticket = deployment.submit("alice", "my matlab license expired",
                                   machine="ws-01")
        session = deployment.session(ticket, admin=ADMIN)
        with pytest.raises(RuntimeError, match="context manager"):
            session.shell
        with session:
            pass  # open and resolve it so the ticket does not dangle

    def test_handle_convenience_runs_the_body(self, deployment):
        ticket = deployment.submit("bob", "cannot reach shared storage",
                                   machine="ws-02")
        seen = {}

        def body(session: Session):
            seen["hostname"] = session.shell.hostname()

        result = deployment.handle(ticket, admin=ADMIN, run=body)
        assert result.resolved
        assert seen["hostname"]


class TestDurableFacade:
    """Deployment.open / create(store=) — the persistent-history API."""

    def test_sessions_are_persisted_and_queryable(self, deployment):
        ticket = deployment.submit("alice", "my matlab license expired",
                                   machine="ws-01")

        def body(session):
            session.shell.hostname()
            session.client.pb("ps -a")

        result = deployment.handle(ticket, admin=ADMIN, run=body)
        assert result.session_id is not None
        rows = deployment.sessions()
        assert result.session_id in [s.session_id for s in rows]
        trail = deployment.session_trail(result.session_id)
        assert trail.ticket.ticket_id == ticket.ticket_id
        assert trail.session.resolved
        assert trail.events  # the audit trail rode along

    def test_unknown_session_trail_is_none(self, deployment):
        assert deployment.session_trail("nope-b1-s0") is None

    def test_open_survives_restart_with_verified_chains(self, tmp_path):
        from repro.store import verify_trail

        path = str(tmp_path / "org.db")
        first = Deployment.open(path, machines=("ws-01",),
                                users=("alice",), org="acme")
        first.register_admin(ADMIN)
        ticket = first.submit("alice", "my matlab license expired",
                              machine="ws-01")
        result = first.handle(ticket, admin=ADMIN)
        first.store.close()

        second = Deployment.open(path, machines=("ws-01",),
                                 users=("alice",), org="acme")
        try:
            # the earlier life's history is immediately queryable
            trail = second.session_trail(result.session_id)
            assert trail is not None
            assert trail.session.resolved
            verify_trail(trail)
            # and the new life's boot epoch keeps ids collision-free
            assert second.boot > trail.session.boot
            next_ticket = second.submit("alice", "vpn is down",
                                        machine="ws-01")
            next_result = second.handle(next_ticket, admin=ADMIN)
            assert next_result.session_id != result.session_id
            assert len(second.sessions()) == 2
        finally:
            second.store.close()

    def test_orgs_are_isolated_in_the_listing(self, tmp_path):
        from repro.store import SQLiteStore

        store = SQLiteStore(tmp_path / "multi.db")
        acme = Deployment.create(machines=("ws-01",), users=("alice",),
                                 store=store, org="acme")
        acme.register_admin(ADMIN)
        ticket = acme.submit("alice", "my matlab license expired",
                             machine="ws-01")
        acme.handle(ticket, admin=ADMIN)
        beta = Deployment.create(machines=("ws-01",), users=("alice",),
                                 store=store, org="beta")
        try:
            assert len(acme.sessions()) == 1
            assert beta.sessions() == []
        finally:
            store.close()

    def test_failed_session_persists_unresolved(self, deployment):
        ticket = deployment.submit("alice", "my matlab license expired",
                                   machine="ws-01")
        with pytest.raises(RuntimeError):
            with deployment.session(ticket, admin=ADMIN) as session:
                raise RuntimeError("mid-session failure")
        trail = deployment.session_trail(session.result.session_id)
        assert trail is not None
        assert not trail.session.resolved
        assert "RuntimeError" in trail.session.error
        # an errored session leaves its ticket open, as the control
        # plane's sessions do
        assert trail.ticket.status != "RESOLVED"


class TestDualDeploymentSession:
    """T-9 through the facade: both ends logged in, both ends audited."""

    def test_target_write_reaches_the_stored_trail(self):
        from repro.store import verify_trail

        dep = Deployment.create(machines=("ws-01", "ws-03"),
                                users=("alice",))
        dep.register_admin(ADMIN)
        ticket = dep.submit("alice", "ssh connection to the lab server "
                            "hangs, vnc too", machine="ws-01",
                            target_machine="ws-03")
        with dep.session(ticket, admin=ADMIN) as session:
            source, target = session.legs
            source.shell.write_file("/etc/ssh/sshd_config", b"fixed")
            target.shell.write_file("/etc/ssh/sshd_config", b"fixed")
        trail = dep.session_trail(session.result.session_id)
        verify_trail(trail)
        streams = {e.stream for e in trail.events}
        assert {"fs", "fs@ws-03"} <= streams
        assert any(e.stream == "fs@ws-03" and e.op == "write"
                   and e.path.endswith("/etc/ssh/sshd_config")
                   for e in trail.events)
        assert session.result.audit_records == len(trail.events)
        # one bound certificate per leg stands for each machine's login
        assert {c.machine for c in trail.certificates} == {"ws-01", "ws-03"}


class TestDeploymentSurface:
    def test_machines_listing(self, deployment):
        assert deployment.machines == ("ws-01", "ws-02")

    def test_register_user_can_then_report(self, deployment):
        deployment.register_user("carol")
        ticket = deployment.submit("carol", "my password expired",
                                   machine="ws-02")
        assert deployment.handle(ticket, admin=ADMIN).resolved

    def test_it_personnel_cannot_file_tickets(self, deployment):
        with pytest.raises(TicketError):
            deployment.submit(ADMIN, "help", machine="ws-01")

    def test_audit_summary_verifies_after_sessions(self, deployment):
        summary = deployment.audit_summary()
        assert summary["verified"]
        assert summary["records"] > 0
        # the summary counts exactly the stored trails' events
        assert summary["records"] == sum(
            row.audit_records for row in deployment.sessions())
        assert sum(summary["by_decision"].values()) == summary["records"]

    def test_audit_summary_counts_denials(self, deployment):
        host = deployment.orchestrator.machines["ws-01"]
        host.rootfs.populate({"home": {"alice": {
            "payroll.docx": b"PK\x03\x04 salaries"}}})
        denies = deployment.audit_summary()["by_decision"].get("deny", 0)
        ticket = deployment.submit("alice", "matlab license expired",
                                   machine="ws-01")
        with deployment.session(ticket, admin=ADMIN) as session:
            with pytest.raises(AccessBlocked):
                session.shell.read_file("/home/alice/payroll.docx")
        summary = deployment.audit_summary()
        assert summary["verified"]
        assert summary["by_decision"]["deny"] > denies

    def test_audit_summary_fails_on_a_tampered_trail(self, tmp_path):
        path = str(tmp_path / "t.db")
        dep = Deployment.open(path, machines=("ws-01",), users=("alice",))
        dep.register_admin(ADMIN)
        ticket = dep.submit("alice", "my matlab license expired",
                            machine="ws-01")
        dep.handle(ticket, admin=ADMIN,
                   run=lambda s: s.shell.read_file(
                       "/home/alice/matlab/license.lic"))
        assert dep.audit_summary()["verified"] is True
        dep.store.close()
        with sqlite3.connect(path) as db:
            db.execute("UPDATE audit_events SET path = '/forged' "
                       "WHERE stream = 'fs'")
        reopened = Deployment.open(path, machines=("ws-01",),
                                   users=("alice",))
        try:
            assert reopened.audit_summary()["verified"] is False
        finally:
            reopened.store.close()

    def test_orchestrator_stays_reachable(self, deployment):
        assert deployment.orchestrator.machines["ws-01"].hostname == "ws-01"


class TestTicketResult:
    def test_to_dict_roundtrips_every_field(self):
        result = TicketResult(ticket_id=7, ticket_class="T-1",
                              machine="ws-01", admin=ADMIN, resolved=True,
                              audit_records=3, duration_s=0.5,
                              latency_s=0.7, shard=2, pool_hit=True)
        row = result.to_dict()
        assert row["ticket_id"] == 7
        assert row["ticket_class"] == "T-1"
        assert row["latency_s"] == 0.7
        assert row["shard"] == 2 and row["pool_hit"] is True
        assert set(row) == {
            "ticket_id", "ticket_class", "machine", "admin", "resolved",
            "error", "audit_records", "duration_s", "latency_s", "shard",
            "pool_hit", "session_id"}

    def test_frozen(self):
        result = TicketResult(ticket_id=1, ticket_class="T-1",
                              machine="ws-01", admin=ADMIN, resolved=True)
        with pytest.raises(AttributeError):
            result.resolved = False

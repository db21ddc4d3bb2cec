"""End-to-end orchestration: the full Figure 3 workflow."""

import pytest

from repro.errors import (
    AccessBlocked,
    CertificateError,
    FileNotFound,
    SessionTerminated,
    TicketError,
)
from repro.framework import WatchITDeployment


@pytest.fixture(scope="module")
def deployment():
    d = WatchITDeployment.bootstrap()
    d.register_admin("it-bob")
    return d


class TestTicketFlow:
    def test_submit_and_classify(self, deployment):
        ticket = deployment.submit_ticket(
            "alice", "my matlab license expired, toolbox error")
        assert deployment.classify(ticket) == "T-1"

    def test_it_admin_cannot_file_tickets(self, deployment):
        with pytest.raises(TicketError):
            deployment.submit_ticket("it-bob", "give me access please")

    def test_unknown_machine_rejected(self, deployment):
        from repro.errors import InvalidArgument
        with pytest.raises(InvalidArgument):
            deployment.submit_ticket("alice", "help", machine="ws-zz")

    def test_handle_deploys_matching_container(self, deployment):
        ticket = deployment.submit_ticket(
            "alice", "matlab license expired error message")
        session = deployment.handle(ticket, admin="it-bob")
        assert session.container.spec.name == "T-1"
        assert session.ticket.assignee == "it-bob"
        # the admin can fix the license file...
        session.shell.write_file("/home/alice/matlab/license.lic",
                                 b"VALID-2018")
        # ...but cannot roam the filesystem
        with pytest.raises(FileNotFound):
            session.shell.read_file("/etc/shadow")
        deployment.resolve(session)

    def test_fix_visible_on_host(self, deployment):
        ticket = deployment.submit_ticket(
            "bob", "matlab license renewal toolbox", machine="ws-02")
        session = deployment.handle(ticket, admin="it-bob")
        session.shell.write_file("/home/bob/matlab/license.lic", b"VALID")
        host = deployment.machines["ws-02"]
        assert host.sys.read_file(host.init, "/home/bob/matlab/license.lic") \
            == b"VALID"
        deployment.resolve(session)

    def test_broker_available_in_session(self, deployment):
        ticket = deployment.submit_ticket("alice", "password account locked reset")
        session = deployment.handle(ticket, admin="it-bob")
        resp = session.client.pb("ps -a")
        assert resp.ok
        deployment.resolve(session)

    def test_resolution_revokes_certificate(self, deployment):
        ticket = deployment.submit_ticket("alice", "matlab license expired")
        session = deployment.handle(ticket, admin="it-bob")
        cert = session.certificate
        deployment.resolve(session)
        with pytest.raises(CertificateError):
            deployment.certificates.validate(cert, "it-bob")

    def test_session_unusable_after_resolution(self, deployment):
        ticket = deployment.submit_ticket("alice", "matlab license expired")
        session = deployment.handle(ticket, admin="it-bob")
        deployment.resolve(session)
        with pytest.raises(SessionTerminated):
            session.shell.listdir("/")

    def test_expired_certificate_refuses_login(self, deployment):
        ticket = deployment.submit_ticket("alice", "matlab license expired")
        ticket.classify_as(deployment.classifier.classify(ticket.text))
        ticket.assign_to("it-bob")
        cert = deployment.certificates.issue(
            "it-bob", ticket.ticket_id, ticket.machine, "T-1", ttl=1)
        deployment.tick(5)
        with pytest.raises(CertificateError):
            deployment.certificates.validate(cert, "it-bob")

    def test_unclassifiable_ticket_gets_t11(self, deployment):
        ticket = deployment.submit_ticket("alice", "strange flurb in the wumpus")
        session = deployment.handle(ticket, admin="it-bob")
        assert session.container.spec.name == "T-11"
        # fully isolated: no host files at all
        with pytest.raises(FileNotFound):
            session.shell.read_file("/home/alice/notes.txt")
        deployment.resolve(session)

    def test_hard_constraints_in_orchestrated_session(self, deployment):
        host = deployment.machines["ws-01"]
        host.rootfs.populate({"home": {"alice": {
            "payroll.docx": b"PK\x03\x04 salaries"}}})
        ticket = deployment.submit_ticket("alice", "matlab license expired")
        session = deployment.handle(ticket, admin="it-bob")
        with pytest.raises(AccessBlocked):
            session.shell.read_file("/home/alice/payroll.docx")
        deployment.resolve(session)

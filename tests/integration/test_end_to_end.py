"""Integration: full-stack scenarios across modules."""

import pytest

from repro.errors import (
    AccessBlocked,
    CertificateError,
    FileNotFound,
    FirewallBlocked,
    SessionTerminated,
)
from repro import Deployment
from repro.framework import WatchITDeployment
from repro.workload import generate_corpus


@pytest.fixture(scope="module")
def org():
    deployment = WatchITDeployment.bootstrap()
    for admin in ("it-bob", "it-eve"):
        deployment.register_admin(admin)
    return deployment


class TestMultiMachine:
    def test_tickets_deploy_on_their_target_machines(self, org):
        t1 = org.submit_ticket("alice", "matlab license expired", machine="ws-01")
        t2 = org.submit_ticket("bob", "password reset account locked",
                               machine="ws-03")
        s1 = org.handle(t1, admin="it-bob")
        s2 = org.handle(t2, admin="it-eve")
        assert s1.container.kernel is org.machines["ws-01"]
        assert s2.container.kernel is org.machines["ws-03"]
        org.resolve(s1)
        org.resolve(s2)

    def test_fix_on_one_machine_does_not_touch_another(self, org):
        ticket = org.submit_ticket("alice", "matlab license error", machine="ws-02")
        session = org.handle(ticket, admin="it-bob")
        session.shell.write_file("/home/alice/matlab/license.lic", b"PATCHED")
        other = org.machines["ws-01"]
        assert other.sys.read_file(
            other.init, "/home/alice/matlab/license.lic") != b"PATCHED"
        org.resolve(session)


class TestConcurrentSessions:
    def test_two_admins_two_containers_isolated(self, org):
        ta = org.submit_ticket("alice", "matlab license expired", machine="ws-01")
        tb = org.submit_ticket("bob", "ssh connection hangs vnc lsf",
                               machine="ws-01")
        sa = org.handle(ta, admin="it-bob")
        sb = org.handle(tb, admin="it-eve")
        # different classes, different views on the same host
        assert sa.container.spec.name == "T-1"
        assert sb.container.spec.name == "T-9"
        # T-1 session sees alice's home, not /etc; T-9 sees both its shares
        assert sa.shell.exists("/home/alice/notes.txt")
        with pytest.raises(FileNotFound):
            sa.shell.read_file("/etc/ssh/sshd_config")
        assert sb.shell.exists("/etc/ssh/sshd_config")
        # each container's pid namespace hides the other's processes
        assert {"containIT", "bash"} == {r["comm"] for r in sa.shell.ps()}
        org.resolve(sa)
        # resolving one session leaves the other alive
        assert sb.container.active
        sb.shell.listdir("/")
        org.resolve(sb)

    def test_certificates_not_transferable_between_sessions(self, org):
        ta = org.submit_ticket("alice", "matlab license expired", machine="ws-01")
        sa = org.handle(ta, admin="it-bob")
        # it-eve tries to reuse it-bob's certificate
        with pytest.raises(CertificateError):
            sa.container.login(
                "it-eve", certificate=sa.certificate,
                authenticator=org.certificates.authenticator(machine="ws-01"))
        org.resolve(sa)


@pytest.fixture(scope="module")
def facade():
    dep = Deployment.create()
    dep.register_admin("it-bob")
    return dep


class TestAuditPipeline:
    """The store's session trails are the org's central audit history."""

    def test_central_log_aggregates_all_sessions(self, facade):
        before = facade.audit_summary()["records"]
        ticket = facade.submit("carol", "quota space increase project gb",
                               machine="ws-01")
        with facade.session(ticket, admin="it-bob") as session:
            session.shell.read_file("/home/carol/notes.txt")
            session.client.pb("ps -a")
        summary = facade.audit_summary()
        assert summary["records"] > before
        assert summary["verified"]
        # both fs activity and broker activity landed in the store
        ops = {e.op for e in facade.session_trail(session.session_id).events}
        assert "read" in ops
        assert any(op.startswith("pb-") for op in ops)

    def test_denials_reach_central_log(self, facade):
        host = facade.orchestrator.machines["ws-01"]
        host.rootfs.populate({"home": {"alice": {"cv.pdf": b"%PDF resume"}}})
        ticket = facade.submit("alice", "matlab license expired",
                               machine="ws-01")
        with facade.session(ticket, admin="it-bob") as session:
            with pytest.raises(AccessBlocked):
                session.shell.read_file("/home/alice/cv.pdf")
            # live in the container's own log while the session runs ...
            assert session.container.fs_audit.filter(decision="deny")
        # ... and durable in the store once it closes
        denies = [e for e in facade.session_trail(session.session_id).events
                  if e.decision == "deny" and e.path.endswith("cv.pdf")]
        assert denies


class TestLDAInTheLoop:
    def test_orchestrator_with_trained_lda(self, org):
        corpus = generate_corpus(400, seed=33)
        org.train_lda_classifier(corpus, n_iter=40, seed=1)
        try:
            ticket = org.submit_ticket(
                "alice", "my matlab license expired toolbox error message",
                machine="ws-01")
            session = org.handle(ticket, admin="it-bob")
            assert ticket.predicted_class == "T-1"
            assert session.shell.exists("/home/alice/matlab/license.lic")
            org.resolve(session)
        finally:
            from repro.framework import KeywordClassifier
            org.classifier = KeywordClassifier()


class TestFailureModes:
    def test_host_peer_crash_mid_session(self, org):
        ticket = org.submit_ticket("alice", "matlab license expired",
                                   machine="ws-01")
        session = org.handle(ticket, admin="it-bob")
        session.container.host_peers["itfs"].die(137)
        with pytest.raises(SessionTerminated):
            session.shell.listdir("/")
        # resolution of a dead session is still clean
        org.resolve(session)

    def test_container_network_cannot_reach_other_machine_services(self, org):
        # T-1 may reach the license server but not, say, the batch server
        ticket = org.submit_ticket("alice", "matlab license expired",
                                   machine="ws-01")
        session = org.handle(ticket, admin="it-bob")
        assert session.shell.net_reachable("10.0.1.10", 27000)
        with pytest.raises(FirewallBlocked):
            session.shell.connect("10.0.1.40", 6500)
        org.resolve(session)

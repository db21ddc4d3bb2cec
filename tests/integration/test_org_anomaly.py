"""Organization-level anomaly detection over the store's session trails."""

import pytest

from repro import Deployment
from repro.anomaly import SessionLog
from repro.errors import AccessBlocked

BENIGN = "matlab license expired toolbox"


def _serve_benign(dep: Deployment, n: int) -> None:
    """Ordinary license fixes."""
    for _ in range(n):
        ticket = dep.submit("alice", BENIGN, machine="ws-01")
        with dep.session(ticket, admin="it-bob") as session:
            session.shell.read_file("/home/alice/matlab/license.lic")
            session.shell.write_file("/home/alice/matlab/license.lic",
                                     b"VALID")


def _serve_rogue(dep: Deployment) -> str:
    """A session that hammers blocked documents and the broker."""
    host = dep.orchestrator.machines["ws-01"]
    host.rootfs.populate({"home": {"alice": {
        f"doc{i}.docx": b"PK\x03\x04" for i in range(6)}}})
    ticket = dep.submit("alice", BENIGN, machine="ws-01")
    with dep.session(ticket, admin="it-bob") as rogue:
        for i in range(6):
            with pytest.raises(AccessBlocked):
                rogue.shell.read_file(f"/home/alice/doc{i}.docx")
        for _ in range(4):
            rogue.client.pb("rm -rf /")  # denied escalations
    return rogue.session_id


@pytest.fixture()
def busy_org():
    """An org that has served six benign tickets and one rogue session."""
    dep = Deployment.create(machines=("ws-01",))
    dep.register_admin("it-bob")
    _serve_benign(dep, 6)
    return dep, _serve_rogue(dep)


class TestSessionReconstruction:
    def test_sessions_grouped_by_source(self, busy_org):
        dep, _ = busy_org
        rows = dep.sessions()
        logs = [SessionLog.from_trail(dep.session_trail(row.session_id))
                for row in rows]
        assert len(logs) == 7  # one log per stored session, every stream
        assert all(log.records for log in logs)
        assert [log.session_id for log in logs] == \
            [row.session_id for row in rows]
        for row, log in zip(rows, logs):
            assert len(log.records) == row.audit_records

    def test_detection_flags_the_rogue_streams(self, busy_org):
        dep, rogue_id = busy_org
        flagged = dep.detect_anomalies(threshold=5.0)
        assert [s.session_id for s in flagged] == [rogue_id]
        top_signals = dict(flagged[0].top_features)
        assert any(name in top_signals for name in
                   ("denials", "denial_ratio", "escalation_denials",
                    "document_touches"))

    def test_alerts_are_keyed_by_store_session(self, busy_org):
        dep, rogue_id = busy_org
        dep.detect_anomalies(threshold=5.0)
        alerts = dep.store.alerts()
        assert [a.session_id for a in alerts] == [rogue_id]
        for alert in alerts:
            assert dep.store.get_session(alert.session_id) is not None

    def test_empty_org_detects_nothing(self):
        dep = Deployment.create(machines=("ws-01",))
        assert dep.detect_anomalies() == []
        assert dep.store.alerts() == []


class TestDurableHistory:
    def test_history_outlives_the_process(self, tmp_path):
        path = str(tmp_path / "o.db")
        first = Deployment.open(path, machines=("ws-01",))
        first.register_admin("it-bob")
        _serve_benign(first, 6)
        rogue_id = _serve_rogue(first)
        records = first.audit_summary()["records"]
        first.store.close()

        second = Deployment.open(path, machines=("ws-01",))
        try:
            summary = second.audit_summary()
            assert summary["records"] == records > 0
            assert summary["verified"] is True
            flagged = second.detect_anomalies(threshold=5.0)
            assert [s.session_id for s in flagged] == [rogue_id]
        finally:
            second.store.close()


class TestTerminalGrep:
    def test_grep_finds_matches_in_view(self, busy_org):
        from repro.containit import Terminal
        dep, _ = busy_org
        ticket = dep.submit("alice", "matlab license renewal")
        with dep.session(ticket, admin="it-bob") as session:
            terminal = Terminal(session.shell, session.client)
            out = terminal.run("grep -r VALID /home/alice")
        assert "/home/alice/matlab/license.lic:VALID" in out
        # blocked documents are skipped, not leaked
        assert ".docx" not in out

    def test_grep_single_file(self, busy_org):
        from repro.containit import Terminal
        dep, _ = busy_org
        ticket = dep.submit("alice", "matlab license renewal")
        with dep.session(ticket, admin="it-bob") as session:
            terminal = Terminal(session.shell)
            out = terminal.run("grep VALID /home/alice/matlab/license.lic")
        assert out.startswith("/home/alice/matlab/license.lic:")

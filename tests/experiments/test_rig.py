"""The one ticket replay: ``CaseStudyRig.session`` and ``replay_op``."""

import pytest

from repro.errors import ReproError
from repro.experiments import run_table4
from repro.experiments.rig import build_case_study_rig, replay_op
from repro.framework.images import TABLE3_SPECS


@pytest.fixture()
def rig():
    return build_case_study_rig()


class TestSession:
    def test_yields_a_logged_in_class_container(self, rig):
        spec = TABLE3_SPECS["T-1"]
        with rig.session(spec, "alice", "it-admin") as session:
            assert session.container.active
            assert session.container.spec is spec
            assert session.shell.admin == "it-admin"
            assert session.client.ticket_class == "T-1"
            assert session.broker.container is session.container
        assert not session.container.active

    def test_terminates_when_the_body_raises(self, rig):
        with pytest.raises(RuntimeError, match="boom"):
            with rig.session(TABLE3_SPECS["T-6"], "bob", "it-admin") as session:
                raise RuntimeError("boom")
        assert not session.container.active
        assert not session.broker.proc.alive
        # the next session deploys on the same rig
        with rig.session(TABLE3_SPECS["T-6"], "bob", "it-admin") as again:
            replay_op(again, {"op": "read", "arg": "/etc/fstab"})


class TestReplayOp:
    def test_unknown_kind_raises(self, rig):
        with rig.session(TABLE3_SPECS["T-1"], "alice", "it-admin") as session:
            with pytest.raises(ReproError, match="unknown replay op 'dance'"):
                replay_op(session, {"op": "dance", "arg": "x"})

    @pytest.mark.parametrize("op, message", [
        ({"op": "pb-fs", "arg": "/opt/watchit"}, "broker refused share"),
        ({"op": "pb-proc", "arg": "rm -rf /var/log"},
         "broker refused rm -rf /var/log"),
    ])
    def test_refused_escalation_raises(self, rig, op, message):
        with rig.session(TABLE3_SPECS["T-1"], "alice", "it-admin") as session:
            with pytest.raises(ReproError, match=message):
                replay_op(session, op)
            assert [r.decision for r in session.broker.audit.records] == \
                ["deny"]

    def test_granted_network_escalation_connects(self, rig):
        # T-2 cannot reach shared storage on its own: the grant opens it,
        # and the replay then talks to it through the monitored interface
        with rig.session(TABLE3_SPECS["T-2"], "alice", "it-admin") as session:
            replay_op(session, {"op": "pb-net", "arg": "shared-storage"})
            assert [r.decision for r in session.broker.audit.records] == \
                ["allow"]
            assert session.container.monitor.packets_seen == 2


class TestTable4Counters:
    """Exact work of the Table 4 replay at the CLI defaults."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_table4(n_tickets=150, classifier="keyword", seed=42)

    def test_monitored_totals(self, result):
        assert result.replay_errors == []
        assert (result.monitored_fs_ops, result.monitored_packets) == \
            (339, 358)

    def test_per_class_rows(self, result):
        rows = {c: (r.tickets, r.satisfied, r.pb_process, r.pb_filesystem,
                    r.pb_network) for c, r in result.rows.items()}
        assert rows == {
            "T-1": (16, 14, 1, 0, 1), "T-2": (9, 8, 0, 0, 1),
            "T-3": (15, 15, 0, 0, 0), "T-4": (1, 1, 0, 0, 0),
            "T-5": (12, 11, 0, 0, 1), "T-6": (41, 40, 0, 0, 1),
            "T-7": (15, 15, 0, 0, 0), "T-8": (5, 5, 0, 0, 0),
            "T-9": (29, 29, 0, 0, 0), "T-10": (4, 4, 0, 0, 0),
            "T-11": (3, 3, 0, 0, 0)}

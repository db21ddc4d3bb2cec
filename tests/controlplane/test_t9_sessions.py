"""T-9 over the serving path: a target machine on the ticket's shard gets
its own session leg — login, certificate, audit — in both worker modes,
and a target on another shard is refused at admission."""

import pytest

from repro.controlplane import ControlPlane
from repro.errors import InvalidArgument
from repro.store import verify_trail

#: at four shards ws-01 and ws-03 share a shard; ws-02 sits on another
MACHINES = ("ws-01", "ws-02", "ws-03", "ws-04")
ADMIN = "it-bob"
TEXT = "ssh connection to the lab server hangs, vnc too"


def fix_sshd_config(shell, client):
    """Module-level (picklable) body: write a file on the leg it runs on."""
    shell.write_file("/etc/ssh/sshd_config", b"fixed")


def make_plane(workers):
    plane = ControlPlane(machines=MACHINES, users=("alice",), shards=4,
                         pool_size=1, workers=workers).start()
    plane.register_admin(ADMIN)
    return plane


@pytest.mark.parametrize("workers", ["thread", "process"])
class TestT9ThroughThePlane:
    def test_both_legs_log_in_and_reach_the_trail(self, workers):
        plane = make_plane(workers)
        try:
            result = plane.submit("alice", TEXT, "ws-01", ADMIN,
                                  ops=fix_sshd_config,
                                  target_machine="ws-03").result(timeout=60)
            plane.drain()
            trail = plane.store.get_trail(result.session_id)
        finally:
            plane.close()
        assert result.resolved and result.ticket_class == "T-9"
        verify_trail(trail)
        writes = {e.stream for e in trail.events
                  if e.op == "write" and e.path.endswith("sshd_config")}
        assert writes == {"fs", "fs@ws-03"}
        assert result.audit_records == len(trail.events)
        assert trail.session.audit_records == len(trail.events)
        # one bound certificate per leg stands for each machine's login
        assert {c.machine for c in trail.certificates} == {"ws-01", "ws-03"}
        assert all(c.revoked for c in trail.certificates)

    def test_target_on_another_shard_is_refused(self, workers):
        plane = make_plane(workers)
        try:
            with pytest.raises(InvalidArgument, match="shard"):
                plane.submit("alice", TEXT, "ws-01", ADMIN,
                             target_machine="ws-02")
            with pytest.raises(InvalidArgument, match="shard"):
                plane.submit_many([("alice", TEXT, "ws-01", "ws-02")],
                                  ADMIN)
            plane.drain()
            assert plane.store.counts()["sessions"] == 0
            assert plane.submitted == 0
        finally:
            plane.close()

    def test_tickets_without_a_target_keep_one_leg(self, workers):
        plane = make_plane(workers)
        try:
            result = plane.submit("alice", TEXT, "ws-01", ADMIN,
                                  ops=fix_sshd_config).result(timeout=60)
            plane.drain()
            trail = plane.store.get_trail(result.session_id)
        finally:
            plane.close()
        assert {e.stream for e in trail.events} <= {"fs", "net", "broker"}
        assert [c.machine for c in trail.certificates] == ["ws-01"]


@pytest.mark.parametrize("workers", ["thread", "process"])
class TestBatchAdmissionIsAllOrNothing:
    """Every row of a ``submit_many`` batch is validated before the first
    chunk ships: an invalid row refuses the whole batch, with no ticket
    served and no future lost."""

    VALID = [("alice", TEXT, "ws-01")] * 40

    @pytest.mark.parametrize("bad_row", [
        ("alice", TEXT, "ws-99"),
        ("alice", TEXT, "ws-01", "ws-02"),
    ], ids=["unknown-machine", "cross-shard-target"])
    def test_invalid_row_refuses_the_whole_batch(self, workers, bad_row):
        plane = make_plane(workers)
        try:
            with pytest.raises(InvalidArgument):
                plane.submit_many(self.VALID + [bad_row] + self.VALID[:5],
                                  ADMIN)
            plane.drain()
            assert plane.submitted == 0
            assert plane.store.counts()["sessions"] == 0
            futures = plane.submit_many(self.VALID, ADMIN)
            results = [f.result(timeout=60) for f in futures]
            plane.drain()
            assert all(r.resolved for r in results)
            assert plane.submitted == len(self.VALID)
            assert plane.store.counts()["sessions"] == len(self.VALID)
        finally:
            plane.close()

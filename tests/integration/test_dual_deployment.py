"""T-9 dual deployment: containers on both the user and target machines."""

import pytest

from repro.framework import WatchITDeployment


@pytest.fixture()
def org():
    deployment = WatchITDeployment.bootstrap(machines=("ws-01", "ws-02"))
    deployment.register_admin("it-bob")
    return deployment


class TestDualDeployment:
    def test_t9_ticket_deploys_on_both_machines(self, org):
        ticket = org.submit_ticket(
            "alice", "ssh connection to the lab server hangs, vnc too",
            machine="ws-01", target_machine="ws-02")
        session = org.handle(ticket, admin="it-bob")
        assert session.container.spec.name == "T-9"
        source, target = session.legs
        assert source.lease.container.kernel is org.machines["ws-01"]
        assert target.lease.container.kernel is org.machines["ws-02"]
        # the admin can fix sshd_config on both ends
        source.shell.write_file("/etc/ssh/sshd_config", b"fixed-user-side")
        target.shell.write_file("/etc/ssh/sshd_config", b"fixed-target-side")
        for machine, expected in (("ws-01", b"fixed-user-side"),
                                  ("ws-02", b"fixed-target-side")):
            host = org.machines[machine]
            assert host.sys.read_file(host.init, "/etc/ssh/sshd_config") \
                == expected
        org.resolve(session)
        assert not source.lease.container.active
        assert not target.lease.container.active

    def test_no_secondary_without_target_machine(self, org):
        ticket = org.submit_ticket("alice", "ssh vnc session dies",
                                   machine="ws-01")
        session = org.handle(ticket, admin="it-bob")
        assert len(session.legs) == 1
        org.resolve(session)

    def test_no_secondary_when_target_equals_machine(self, org):
        ticket = org.submit_ticket("alice", "ssh vnc session dies",
                                   machine="ws-01", target_machine="ws-01")
        session = org.handle(ticket, admin="it-bob")
        assert len(session.legs) == 1
        org.resolve(session)

    def test_non_t9_classes_never_dual_deploy(self, org):
        ticket = org.submit_ticket("alice", "matlab license expired",
                                   machine="ws-01", target_machine="ws-02")
        session = org.handle(ticket, admin="it-bob")
        assert session.container.spec.name == "T-1"
        assert len(session.legs) == 1
        org.resolve(session)

    def test_unknown_target_machine_rejected(self, org):
        from repro.errors import InvalidArgument
        with pytest.raises(InvalidArgument):
            org.submit_ticket("alice", "ssh", machine="ws-01",
                              target_machine="nope")

    def test_expiry_terminates_both(self, org):
        ticket = org.submit_ticket("alice", "ssh vnc lsf job stuck",
                                   machine="ws-01", target_machine="ws-02")
        session = org.handle(ticket, admin="it-bob", ttl=3)
        org.tick(10)
        assert len(session.legs) == 2
        assert not any(leg.lease.container.active for leg in session.legs)

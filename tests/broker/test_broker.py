"""Permission broker: escalation, logging, online file sharing, policy."""

import pytest

from repro.broker import (
    BrokerClient,
    BrokerPolicy,
    ClassEscalationPolicy,
    PermissionBroker,
    RequestKind,
    deny_all_policy,
)
from repro.containit import HOME_DIRECTORY, LICENSE_SERVER, PerforatedContainerSpec
from repro.errors import AccessBlocked, BrokerDenied
from repro.kernel import user_credentials
from tests.conftest import ADDRESS_BOOK, STORAGE_IP, deploy


@pytest.fixture()
def brokered(rig):
    """A T-1 container with an attached broker and a logged-in admin."""
    net, host = rig
    spec = PerforatedContainerSpec(
        name="T-1", fs_shares=(HOME_DIRECTORY,),
        network_allowed=(LICENSE_SERVER,))
    container = deploy(host, spec)
    broker = PermissionBroker(
        host, container, address_book=ADDRESS_BOOK,
        software_repository={"matlab-toolbox": b"\x7fELF toolbox payload"})
    shell = container.login("it-bob")
    client = BrokerClient(shell, broker)
    return host, container, broker, shell, client


class TestFigure6:
    """The paper's ps vs PB ps demonstration."""

    def test_plain_ps_shows_container_only(self, brokered):
        host, container, broker, shell, client = brokered
        comms = {r["comm"] for r in shell.ps()}
        assert "PermissionBroker" not in comms and "init" not in comms

    def test_pb_ps_shows_host_processes(self, brokered):
        host, container, broker, shell, client = brokered
        resp = client.pb("ps -a")
        assert resp.ok
        comms = {r["comm"] for r in resp.output}
        assert {"PermissionBroker", "ContainIT", "itfs", "snort", "init"} <= comms


class TestPrivilegeGate:
    def test_unprivileged_user_cannot_contact_broker(self, brokered):
        host, container, broker, shell, client = brokered
        shell.proc.creds = user_credentials(1000)
        with pytest.raises(BrokerDenied):
            client.pb("ps -a")


class TestExecEscalations:
    def test_service_restart_via_broker(self, brokered):
        host, container, broker, shell, client = brokered
        resp = client.pb("service-restart sshd")
        assert resp.ok and host.service_restarts["sshd"] == 1

    def test_unknown_command_denied_by_policy(self, brokered):
        host, container, broker, shell, client = brokered
        resp = client.pb("rm -rf /")
        assert not resp.ok and "denied" in resp.error

    def test_kill_host_process_via_broker(self, brokered):
        host, container, broker, shell, client = brokered
        victim = host.sys.clone(host.init, "runaway")
        pid = victim.pid_in(host.init.namespaces.pid)
        resp = client.pb(f"kill {pid}")
        assert resp.ok and not victim.alive

    @pytest.mark.parametrize("line", ["kill", "kill abc", "service-restart"])
    def test_malformed_operand_is_a_dispatch_error(self, brokered, line):
        from repro import obs
        host, container, broker, shell, client = brokered
        resp = client.pb(line)
        assert not resp.ok and resp.error.startswith("[EINVAL] PB ")
        assert obs.registry().total("broker_dispatch_errors", kind="exec") == 1
        span = obs.tracer().filter("broker:exec")[-1]
        assert span.attrs["dispatch_error"] == resp.error
        assert broker.audit.records[-1].decision == "allow"


class TestOnlineFileSharing:
    def test_share_path_exposes_new_directory(self, brokered):
        host, container, broker, shell, client = brokered
        host.rootfs.populate({"srv": {"data": {"config.yaml": "key: value"}}})
        assert not shell.exists("/srv/data/config.yaml")
        resp = client.share_path("/srv/data")
        assert resp.ok
        assert shell.read_file("/srv/data/config.yaml") == b"key: value"

    def test_shared_mount_is_itfs_supervised(self, brokered):
        host, container, broker, shell, client = brokered
        host.rootfs.populate({"srv": {"data": {"report.pdf": b"%PDF secret"}}})
        client.share_path("/srv/data")
        with pytest.raises(AccessBlocked):
            shell.read_file("/srv/data/report.pdf")

    def test_shared_accesses_audited(self, brokered):
        host, container, broker, shell, client = brokered
        host.rootfs.populate({"srv": {"data": {"f.txt": "x"}}})
        client.share_path("/srv/data")
        before = len(container.fs_audit)
        shell.read_file("/srv/data/f.txt")
        assert len(container.fs_audit) > before

    def test_share_to_custom_container_path(self, brokered):
        host, container, broker, shell, client = brokered
        host.rootfs.populate({"srv": {"data": {"f.txt": "x"}}})
        resp = client.share_path("/srv/data", container_path="/mnt/extra")
        assert resp.ok
        assert shell.read_file("/mnt/extra/f.txt") == b"x"

    def test_watchit_components_never_shareable(self, brokered):
        host, container, broker, shell, client = brokered
        resp = client.share_path("/opt/watchit")
        assert not resp.ok

    def test_host_mount_table_unchanged(self, brokered):
        host, container, broker, shell, client = brokered
        host.rootfs.populate({"srv": {"data": {}}})
        before = host.sys.mounts(host.init)
        client.share_path("/srv/data")
        assert host.sys.mounts(host.init) == before


class TestNetworkGrants:
    def test_grant_network_by_label(self, brokered):
        from repro.errors import FirewallBlocked
        host, container, broker, shell, client = brokered
        with pytest.raises(FirewallBlocked):
            shell.connect(STORAGE_IP, 2049)
        resp = client.grant_network("shared-storage")
        assert resp.ok
        assert shell.connect(STORAGE_IP, 2049).send(b"mount") == b"NFS-OK"

    def test_grant_network_by_literal_ip(self, brokered):
        host, container, broker, shell, client = brokered
        client.grant_network(STORAGE_IP, port=2049)
        assert shell.net_reachable(STORAGE_IP, 2049)


class TestPackageInstall:
    def test_install_from_repository(self, brokered):
        host, container, broker, shell, client = brokered
        resp = client.install_package("matlab-toolbox")
        assert resp.ok
        assert shell.read_file("/progs/matlab-toolbox/matlab-toolbox.bin") \
            == b"\x7fELF toolbox payload"

    def test_unknown_package_fails(self, brokered):
        host, container, broker, shell, client = brokered
        resp = client.install_package("nonexistent")
        assert not resp.ok


class TestLoggingAndPolicy:
    def test_every_request_logged_even_denied(self, brokered):
        host, container, broker, shell, client = brokered
        client.pb("ps -a")
        client.pb("forbidden-command")
        log = broker.audit
        assert len(log) == 2
        assert log.counts_by("decision") == {"allow": 1, "deny": 1}
        assert log.verify()

    def test_deny_all_policy(self, rig):
        net, host = rig
        container = deploy(host, PerforatedContainerSpec(name="T-11"))
        broker = PermissionBroker(host, container, policy=deny_all_policy())
        shell = container.login("it-bob")
        client = BrokerClient(shell, broker)
        assert not client.pb("ps -a").ok

    def test_class_specific_policy(self, rig):
        net, host = rig
        container = deploy(host, PerforatedContainerSpec(name="T-2"))
        policy = BrokerPolicy(class_policies={
            "T-2": ClassEscalationPolicy(
                allowed_kinds=frozenset({RequestKind.EXEC}),
                exec_commands=frozenset({"hostname"})),
        })
        broker = PermissionBroker(host, container, policy=policy)
        client = BrokerClient(container.login("it-bob"), broker)
        assert client.pb("hostname").ok
        assert not client.pb("ps").ok
        assert not client.share_path("/home").ok

    def test_host_info(self, brokered):
        host, container, broker, shell, client = brokered
        resp = client.host_info()
        assert resp.ok and resp.output["hostname"] == "ws-01"

    def test_suggest_policy_updates(self, brokered):
        host, container, broker, shell, client = brokered
        for _ in range(4):
            client.pb("ps -a")
        suggestions = broker.suggest_policy_updates(min_requests=3)
        assert suggestions and suggestions[0][0] == "pb-exec"

    def test_killing_broker_terminates_session(self, brokered):
        from repro.errors import SessionTerminated
        host, container, broker, shell, client = brokered
        broker.proc.die(137)
        assert not container.active
        with pytest.raises(SessionTerminated):
            shell.ps()

    def test_malformed_bytes_get_error_response(self, brokered):
        from repro.broker import BrokerResponse
        host, container, broker, shell, client = brokered
        resp = BrokerResponse.from_bytes(broker.handle_bytes(b"garbage"))
        assert not resp.ok

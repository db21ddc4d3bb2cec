"""The case-study rig: a simulated organization for the experiments.

Builds the environment the Section 7 experiments run in: a managed
workstation with the filesystem content the evaluation tickets touch, the
organizational services (license server, shared storage, software
repository, batch/LSF server, whitelisted web), a target machine, and the
standard address book.

:meth:`CaseStudyRig.session` and :func:`replay_op` are the one way the
experiments, the policy miner and the anomaly corpus run a ticket in its
class container.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, NamedTuple, Optional, Tuple

from repro import obs
from repro.broker import BrokerClient, PermissionBroker
from repro.containit import AddressBook, AdminShell, PerforatedContainer
from repro.containit.spec import PerforatedContainerSpec
from repro.errors import ReproError
from repro.framework.orchestrator import DEFAULT_SERVICES
from repro.kernel import Kernel, Network
from repro.kernel.capabilities import Credentials
from repro.tcb import install_watchit_components

TARGET_IP = "10.0.0.7"

#: IP every rig session's container deploys on (sessions on one rig are
#: strictly sequential; each terminates before the next deploys)
CONTAINER_IP = "10.0.99.50"

#: concrete endpoints per symbolic destination, for replaying "net" ops;
#: the organizational services sit where the orchestrator puts them
DESTINATION_ENDPOINTS: Dict[str, Tuple[str, int]] = {
    label: (ip, port) for label, (ip, port, _) in DEFAULT_SERVICES.items()}
DESTINATION_ENDPOINTS["target-machine"] = (TARGET_IP, 22)

STANDARD_ADDRESS_BOOK: AddressBook = {
    label: [endpoint] for label, endpoint in DESTINATION_ENDPOINTS.items()}
STANDARD_ADDRESS_BOOK["target-machine"] = [("10.0.0.0/24", None)]

#: the rig's own host name and reply per destination (reply sizes reach
#: the net audit's ``bytes``, so they are not the orchestrator's)
_SERVICE_HOSTS: Dict[str, Tuple[str, bytes]] = {
    "license-server": ("license-srv", b"LICENSE-OK"),
    "shared-storage": ("storage", b"NFS-OK"),
    "software-repository": ("repo", b"\x7fELF pkg"),
    "batch-server": ("batch", b"LSF-OK"),
    "whitelisted-websites": ("web", b"HTTP/1.1 200 OK"),
    "target-machine": ("target", b"SSH-2.0-OpenSSH"),
}

_USERS = ("alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi")

#: host filesystem content covering every path the ticket ops touch
def _host_tree() -> dict:
    tree: dict = {
        "etc": {
            "passwd": "root:x:0:0\n" + "".join(
                f"{u}:x:{1000 + i}:{1000 + i}\n" for i, u in enumerate(_USERS)),
            "shadow": "root:!:19000::\n",
            "fstab": "/dev/sda / ext4 defaults 0 1\n",
            "ssh": {"sshd_config": "PermitRootLogin no\n"},
            "vm-ownership.conf": "vm-llvm2: root\n",
            "apt.conf": "APT::Default-Release \"stable\";\n",
            "modules": "loop\n",
        },
        "usr": {"lib": {"libc.so": b"\x7fELF libc"}},
        "var": {"log": {"syslog": "boot ok\nERROR disk warning\n"}},
        "home": {},
    }
    for user in _USERS:
        tree["home"][user] = {
            "notes.txt": f"notes of {user}",
            "salary.docx": b"PK\x03\x04 confidential",
            ".ssh": {"config": "Host *\n"},
            "matlab": {"license.lic": "EXPIRED 2016-12-31"},
        }
    return tree


class RigSession(NamedTuple):
    """One logged-in class container on the rig."""

    container: PerforatedContainer
    broker: PermissionBroker
    shell: AdminShell
    client: BrokerClient


@dataclass
class CaseStudyRig:
    """One assembled case-study environment."""

    network: Network
    host: Kernel
    address_book: AddressBook
    software_repository: Dict[str, bytes]

    @contextmanager
    def session(self, spec: PerforatedContainerSpec, user: str, admin: str,
                credentials: Optional[Credentials] = None
                ) -> Iterator[RigSession]:
        """Deploy ``spec`` for ``user``'s ticket and log ``admin`` in.

        The container is terminated on exit, also when the body raises.
        """
        container = PerforatedContainer.deploy(
            self.host, spec, user=user, address_book=self.address_book,
            container_ip=CONTAINER_IP)
        try:
            broker = PermissionBroker(
                self.host, container, address_book=self.address_book,
                software_repository=self.software_repository)
            shell = container.login(admin, credentials=credentials)
            yield RigSession(container, broker, shell,
                             BrokerClient(shell, broker))
        finally:
            container.terminate("session over")


def build_case_study_rig(hostname: str = "ws-01") -> CaseStudyRig:
    """Assemble the organization the Section 7 experiments exercise."""
    network = Network()
    host = Kernel(hostname, ip="10.0.0.5", network=network)
    install_watchit_components(host.rootfs)
    host.rootfs.populate(_host_tree())
    for service in ("sshd", "cron", "network", "spark", "swift"):
        host.register_service(service)
    for label, (name, reply) in _SERVICE_HOSTS.items():
        ip, port = DESTINATION_ENDPOINTS[label]
        Kernel(name, ip=ip, network=network)
        network.listen(ip, port, lambda pkt, _reply=reply: _reply)

    return CaseStudyRig(network=network, host=host,
                        address_book=dict(STANDARD_ADDRESS_BOOK),
                        software_repository={
                            "matlab-toolbox": b"\x7fELF toolbox",
                        })


def _granted(response, what: str) -> None:
    if not response.ok:
        raise ReproError(f"broker refused {what}: {response.error}")


def _send(session: RigSession, destination: str) -> None:
    ip, port = DESTINATION_ENDPOINTS[destination]
    session.shell.connect(ip, port).send(b"op")


def replay_op(session: RigSession, op: Mapping[str, str]) -> None:
    """Run one ticket op (``{"op": kind, "arg": arg}``) in ``session``.

    ``pb-*`` kinds go through the permission broker; a granted ``pb-net``
    then connects to the destination. Raises
    :class:`~repro.errors.ReproError` for a refused operation, a refused
    escalation, or an unknown kind.
    """
    kind, arg = op["op"], op["arg"]
    shell, client = session.shell, session.client
    if kind == "read":
        shell.read_file(arg)
    elif kind == "write":
        shell.write_file(arg, b"# updated by IT\n", append=True)
    elif kind == "net":
        _send(session, arg)
    elif kind == "ps":
        shell.ps()
    elif kind == "kill":
        victim = session.container.kernel.sys.clone(shell.proc, "runaway")
        shell.kill(victim.pid_in(shell.proc.namespaces.pid))
    elif kind == "service-restart":
        shell.restart_service(arg)
    elif kind == "pb-proc":
        _granted(client.pb(f"{arg} sshd" if arg == "service-restart"
                           else arg), arg)
    elif kind == "pb-fs":
        _granted(client.share_path(arg), "share")
    elif kind == "pb-net":
        _granted(client.grant_network(arg), "grant")
        _send(session, arg)
    elif kind == "pb-install":
        _granted(client.install_package(arg), "install")
    else:
        raise ReproError(f"unknown replay op {kind!r}")


def run_with_metrics(runner: Callable[[], object],
                     metrics_out: Optional[str] = None,
                     reset: bool = True, name: str = "instrumented-run",
                     params: Optional[Dict[str, object]] = None):
    """Run an experiment with a clean observability slate; optionally dump.

    The ``--metrics-out`` hook: resets the shared registry/tracer (so the
    dump describes exactly this run), invokes ``runner()``, and — when
    ``metrics_out`` is given — writes an
    :class:`~repro.experiments.schema.ExperimentReport` there with the
    full registry snapshot under ``artifacts["metrics"]``. Returns
    ``(result, snapshot)``.
    """
    if reset:
        obs.reset()
    result = runner()
    registry = obs.registry()
    snapshot = registry.snapshot()
    if metrics_out is not None:
        from repro.experiments.schema import ExperimentReport
        ExperimentReport(
            name=name, params=dict(params or {}),
            metrics={"metric_series": len(snapshot)},
            artifacts={"metrics": snapshot},
        ).write(metrics_out)
    return result, snapshot

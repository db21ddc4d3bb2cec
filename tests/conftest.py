"""Shared fixtures: host kernels, network fabrics, and deployment rigs."""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--fuzz-soak", action="store_true", default=False,
        help="run the escape fuzzer at soak depth (hundreds of examples) "
             "instead of the bounded smoke profile")


@pytest.fixture()
def fuzz_soak(request):
    """Whether the slow, deep fuzzing profile was requested."""
    return request.config.getoption("--fuzz-soak")

from repro import obs
from repro.containit import PerforatedContainer
from repro.framework.orchestrator import DEFAULT_SERVICES
from repro.kernel import (
    ALL_CLONE_FLAGS,
    Kernel,
    Network,
    contained_root_credentials,
)
from repro.tcb import install_watchit_components

#: the organization's services, as every deployment wires them
LICENSE_IP = DEFAULT_SERVICES["license-server"][0]
STORAGE_IP = DEFAULT_SERVICES["shared-storage"][0]
REPO_IP = DEFAULT_SERVICES["software-repository"][0]
BATCH_IP = DEFAULT_SERVICES["batch-server"][0]
WEB_IP = DEFAULT_SERVICES["whitelisted-websites"][0]

ADDRESS_BOOK = {label: [(ip, port)]
                for label, (ip, port, _reply) in DEFAULT_SERVICES.items()}
ADDRESS_BOOK["target-machine"] = [("10.0.0.0/24", None)]

#: the rig fixture's hostname for each service's helper kernel
_SERVICE_HOSTS = {
    "license-server": "license-srv",
    "shared-storage": "storage",
    "software-repository": "repo",
    "batch-server": "batch",
    "whitelisted-websites": "web",
}


@pytest.fixture(autouse=True)
def _fresh_observability():
    """Isolate each test's view of the shared metrics registry/tracer."""
    obs.reset()
    yield
    obs.reset()


@pytest.fixture()
def network():
    return Network()


@pytest.fixture()
def kernel(network):
    """A booted host at 10.0.0.5 with some user data on disk."""
    k = Kernel("lnx-host", ip="10.0.0.5", network=network)
    k.rootfs.populate({
        "home": {
            "alice": {
                "notes.txt": "meeting notes",
                "salary.docx": b"PK\x03\x04 confidential payroll",
                "photo.jpg": b"\xff\xd8\xff\xe0 jpeg bits",
                "matlab": {"license.lic": "EXPIRED 2016-12-31"},
            },
        },
        "etc": {"ssh": {"ssh_config": "Host *\n"}},
    })
    return k


@pytest.fixture()
def container(kernel):
    """A fully-isolated (traditional) container process, contained root."""
    return kernel.sys.clone(kernel.init, "containIT", flags=ALL_CLONE_FLAGS,
                            creds=contained_root_credentials())


@pytest.fixture()
def rig():
    """A managed workstation plus organizational services on one fabric."""
    net = Network()
    host = Kernel("ws-01", ip="10.0.0.5", network=net)
    install_watchit_components(host.rootfs)
    host.rootfs.populate({
        "home": {
            "alice": {
                "notes.txt": "meeting notes",
                "salary.docx": b"PK\x03\x04 confidential payroll",
                "matlab": {"license.lic": "EXPIRED 2016-12-31"},
            },
        },
    })
    for label, (ip, port, reply) in DEFAULT_SERVICES.items():
        Kernel(_SERVICE_HOSTS[label], ip=ip, network=net)
        net.listen(ip, port, lambda pkt, _reply=reply: _reply)
    host.register_service("sshd")
    return net, host


def deploy(host, spec, user="alice", ip="10.0.0.50"):
    """Deploy a spec on the rig's host with the standard address book."""
    return PerforatedContainer.deploy(
        host, spec, user=user, address_book=ADDRESS_BOOK, container_ip=ip)

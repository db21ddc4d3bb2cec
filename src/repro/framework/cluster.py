"""The cluster manager: deploys perforated containers across machines.

"Upon classifying the ticket, the framework asks the cluster manager to
deploy the corresponding perforated container image on the target
machines" (Section 5.1, Figure 3). The cluster manager owns the machine
registry, allocates container IPs, and wires up the permission broker per
deployment. It keeps no audit history of its own: each session's audit
streams reach the organization's :class:`~repro.store.EventStore` trail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.broker import BrokerPolicy, PermissionBroker, permissive_policy
from repro.containit import AddressBook, PerforatedContainer, PerforatedContainerSpec
from repro.errors import InvalidArgument, IntegrityError
from repro.kernel import Kernel, Network
from repro.tcb import SecureBoot


@dataclass
class Deployment:
    """One live container + its broker on one machine."""

    machine: str
    container: PerforatedContainer
    broker: PermissionBroker


class ClusterManager:
    """Registry of managed machines plus the deployment engine.

    Each :class:`Deployment` carries its own audit logs (the container's
    fs/net streams and the broker's). The ``repro.api`` facade and the
    control plane copy them into the session's store trail; there is no
    cluster-wide copy.
    """

    def __init__(self, network: Optional[Network] = None,
                 address_book: Optional[AddressBook] = None,
                 broker_policy: Optional[BrokerPolicy] = None,
                 software_repository: Optional[Dict[str, bytes]] = None,
                 container_ip_base: str = "10.0.99"):
        self.network = network
        self.address_book: AddressBook = address_book or {}
        self.broker_policy = broker_policy or permissive_policy()
        self.software_repository = software_repository or {}
        self._machines: Dict[str, Kernel] = {}
        self._boots: Dict[str, SecureBoot] = {}
        self._ip_suffix = itertools.count(2)
        self._ip_base = container_ip_base

    # ------------------------------------------------------------------

    def register_machine(self, kernel: Kernel, secure_boot: bool = True) -> None:
        """Add a managed host; performs TCB-validated boot when asked.

        Raises:
            IntegrityError: the host's WatchIT components fail validation.
        """
        if secure_boot:
            boot = SecureBoot(kernel)
            boot.boot()
            self._boots[kernel.hostname] = boot
        self._machines[kernel.hostname] = kernel

    def machine(self, name: str) -> Kernel:
        kernel = self._machines.get(name)
        if kernel is None:
            raise InvalidArgument(f"unmanaged machine {name!r}")
        return kernel

    def machines(self) -> List[str]:
        return sorted(self._machines)

    def _allocate_ip(self) -> str:
        return f"{self._ip_base}.{next(self._ip_suffix)}"

    # ------------------------------------------------------------------

    def deploy(self, spec: PerforatedContainerSpec, machine: str,
               user: str = "end-user") -> Deployment:
        """Deploy ``spec`` on ``machine`` with a broker attached."""
        kernel = self.machine(machine)
        boot = self._boots.get(machine)
        if boot is not None:
            boot.assert_booted()
        container = PerforatedContainer.deploy(
            kernel, spec, user=user, address_book=self.address_book,
            container_ip=self._allocate_ip())
        broker = PermissionBroker(
            kernel, container, policy=self.broker_policy,
            address_book=self.address_book,
            software_repository=self.software_repository)
        return Deployment(machine=machine, container=container, broker=broker)

    def teardown(self, deployment: Deployment,
                 reason: str = "ticket resolved") -> None:
        deployment.container.terminate(reason)

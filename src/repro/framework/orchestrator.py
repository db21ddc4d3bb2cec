"""End-to-end WatchIT orchestration (paper Figure 3).

:class:`WatchITDeployment` wires the whole system together: an
organizational network with its services (license server, shared storage,
software repository, batch server, whitelisted web), managed workstations
booted through the TCB, the ticket database, a classifier, the image
repository, the certificate authority, and the cluster manager.

The workflow it drives::

    ticket = deployment.submit_ticket("alice", "matlab license expired")
    session = deployment.handle(ticket, admin="it-bob")   # classify,
    # deploy the class's perforated container, mint a certificate, log in
    session.shell.read_file("/home/alice/matlab/license.lic")
    session.client.pb("ps -a")                            # escalation
    deployment.resolve(session)                           # revoke + teardown

``handle``/``resolve`` open and close a :mod:`repro.framework.lifecycle`
session on freshly deployed containers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.broker import BrokerPolicy, permissive_policy
from repro.containit import AddressBook
from repro.framework.certificates import CertificateAuthority
from repro.framework.classifier import KeywordClassifier, LDAClassifier
from repro.framework.cluster import ClusterManager, Deployment
from repro.framework.images import ImageRepository
from repro.framework.lifecycle import ClusterSource, TicketSession
from repro.framework.tickets import Role, Ticket, TicketDatabase
from repro.kernel import Kernel, Network
from repro.tcb import install_watchit_components

#: Default organizational service addressing.
DEFAULT_SERVICES = {
    "license-server": ("10.0.1.10", 27000, b"LICENSE-RENEWED"),
    "shared-storage": ("10.0.1.20", 2049, b"NFS-OK"),
    "software-repository": ("10.0.1.30", 8080, b"\x7fELF package payload"),
    "batch-server": ("10.0.1.40", 6500, b"LSF-OK"),
    "whitelisted-websites": ("8.8.4.4", 443, b"HTTP/1.1 200 OK"),
}

DEFAULT_MACHINES = ("ws-01", "ws-02", "ws-03")
DEFAULT_USERS = ("alice", "bob", "carol")


class WatchITDeployment:
    """The assembled WatchIT system over a simulated organization."""

    def __init__(self, network: Network, machines: Dict[str, Kernel],
                 cluster: ClusterManager, tickets: TicketDatabase,
                 certificates: CertificateAuthority,
                 images: Optional[ImageRepository] = None,
                 classifier=None, assignment_policy=None):
        self.network = network
        self.machines = machines
        self.cluster = cluster
        self.tickets = tickets
        self.certificates = certificates
        self.images = images or ImageRepository()
        self.classifier = classifier or KeywordClassifier()
        #: optional permission-based assignment (paper §2/§6.2)
        self.assignment_policy = assignment_policy
        self.clock = 0
        self.sessions: List[TicketSession[Deployment]] = []
        #: per-machine login authenticators, built once, not per login
        self.authenticators = {
            machine: certificates.authenticator(machine=machine)
            for machine in machines}

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------

    @classmethod
    def bootstrap(cls, machines: tuple = DEFAULT_MACHINES,
                  users: tuple = DEFAULT_USERS,
                  broker_policy: Optional[BrokerPolicy] = None,
                  classifier=None) -> "WatchITDeployment":
        """Build a complete simulated organization ready to take tickets."""
        network = Network()
        address_book: AddressBook = {}
        for label, (ip, port, reply) in DEFAULT_SERVICES.items():
            Kernel(label, ip=ip, network=network)
            network.listen(ip, port,
                           lambda pkt, _reply=reply: _reply)
            address_book[label] = [(ip, port)]
        address_book["target-machine"] = [("10.0.0.0/24", None)]

        hosts: Dict[str, Kernel] = {}
        for i, name in enumerate(machines):
            kernel = Kernel(name, ip=f"10.0.0.{5 + i}", network=network)
            install_watchit_components(kernel.rootfs)
            for user in users:
                kernel.rootfs.populate({"home": {user: {
                    "notes.txt": f"notes of {user}",
                    "matlab": {"license.lic": "EXPIRED 2016-12-31"},
                }}})
            kernel.register_service("sshd")
            hosts[name] = kernel

        cluster = ClusterManager(
            network=network, address_book=address_book,
            broker_policy=broker_policy or permissive_policy(),
            software_repository={"matlab-toolbox": b"\x7fELF toolbox"})
        for kernel in hosts.values():
            cluster.register_machine(kernel)

        tickets = TicketDatabase()
        for user in users:
            tickets.register_person(user, Role.END_USER)

        deployment = cls(network=network, machines=hosts, cluster=cluster,
                         tickets=tickets,
                         certificates=CertificateAuthority(clock=lambda: 0),
                         classifier=classifier)
        # rebind the CA clock to the deployment's logical clock
        deployment.certificates._clock = lambda: deployment.clock
        return deployment

    # ------------------------------------------------------------------
    # workflow
    # ------------------------------------------------------------------

    def tick(self, n: int = 1) -> int:
        """Advance the logical clock and expire over-time sessions.

        "Connecting ... is enabled via a temporary certificate, which is
        revoked once the ticket time expires" (Section 5.1): any active
        session whose certificate has lapsed is torn down here.
        """
        self.clock += n
        self._expire_sessions()
        return self.clock

    def _expire_sessions(self) -> None:
        from repro.errors import CertificateError
        live = []
        for session in self.sessions:
            if not session.container.active:
                # resolved or already expired: drop it from the scan set,
                # or every future tick re-walks the whole session history
                continue
            try:
                self.certificates.validate(session.certificate,
                                           session.certificate.admin)
            except CertificateError:
                for leg in session.legs:
                    leg.lease.container.terminate("certificate expired")
                continue
            live.append(session)
        self.sessions = live

    def register_admin(self, name: str) -> None:
        self.tickets.register_person(name, Role.IT_ADMIN)

    def submit_ticket(self, reporter: str, text: str,
                      machine: str = "ws-01",
                      target_machine: Optional[str] = None) -> Ticket:
        """End-user files a ticket (IT personnel are refused)."""
        from repro.errors import InvalidArgument
        if machine not in self.machines:
            raise InvalidArgument(f"unknown machine {machine!r}")
        if target_machine is not None and target_machine not in self.machines:
            raise InvalidArgument(f"unknown target machine {target_machine!r}")
        self.tick()
        return self.tickets.submit(reporter, text, machine,
                                   target_machine=target_machine)

    def classify(self, ticket: Ticket,
                 review: Optional[Callable[[Ticket, str], str]] = None) -> str:
        """Run the classifier (plus optional supervisor review)."""
        predicted = self.classifier.classify(ticket.text)
        if review is not None:
            predicted = review(ticket, predicted)
        ticket.classify_as(predicted, reviewed=review is not None)
        return predicted

    def handle(self, ticket: Ticket, admin: str,
               ttl: Optional[int] = None) -> TicketSession[Deployment]:
        """Classify, then open the ticket's session on fresh containers."""
        return self.open(TicketSession(self, ticket, admin,
                                       ClusterSource(self.cluster), ttl=ttl))

    def open(self, session: TicketSession[Deployment]
             ) -> TicketSession[Deployment]:
        """Open ``session`` (classifying its ticket first if needed)."""
        self.tick()
        if session.ticket.predicted_class is None:
            self.classify(session.ticket)
        self.sessions.append(session.open())
        return session

    def resolve(self, session: TicketSession[Deployment],
                exc: Optional[BaseException] = None) -> None:
        """Close out (``exc``: what the session body raised, if anything)."""
        self.tick()
        session.close(exc)

    def train_lda_classifier(self, tickets, n_topics: int = 10,
                             n_iter: int = 80, seed: int = 0) -> LDAClassifier:
        """Swap in the paper's LDA pipeline, trained on a labelled history."""
        classifier = LDAClassifier(n_topics=n_topics, n_iter=n_iter,
                                   seed=seed).train(tickets)
        self.classifier = classifier
        return classifier

"""One ticket-handling session (paper Figure 3) for every caller.

The facade and the shard server run the same :class:`TicketSession`;
only the container source differs (:class:`ClusterSource` deploys and
tears down, a shard's ``ContainerPool`` leases and scrubs). The *legs*
are the ticket's machine plus, for a ``deploy_on_target_too`` class (T-9),
a distinct ``target_machine``; each logs in with a certificate bound to
its machine. Close is the one audit capture point: it reads every leg's
live streams before any release, a target's tagged ``fs@<machine>`` etc.
A clean close resolves the ticket; an errored one leaves it assigned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import (TYPE_CHECKING, Generic, List, Optional, Protocol,
                    Sequence, Tuple, Type, TypeVar)

from repro.broker import BrokerClient, PermissionBroker
from repro.containit import AdminShell, PerforatedContainer
from repro.containit.spec import PerforatedContainerSpec
from repro.framework.certificates import Certificate
from repro.framework.cluster import ClusterManager, Deployment
from repro.framework.tickets import Ticket
from repro.itfs.audit import AuditRecord
from repro.store.protocol import (AUDIT_STREAMS, CertificateRow, SessionRow,
                                  SessionTrail, TicketRow,
                                  event_row_from_record)

if TYPE_CHECKING:
    from repro.api import TicketResult
    from repro.framework.orchestrator import WatchITDeployment

__all__ = ["ClusterSource", "ContainerSource", "Leg", "TicketSession"]


class Lease(Protocol):
    @property
    def container(self) -> PerforatedContainer: ...

    @property
    def broker(self) -> PermissionBroker: ...


LeaseT = TypeVar("LeaseT", bound=Lease)


class ContainerSource(Protocol[LeaseT]):
    """Where a session's containers come from and go back to."""

    def acquire(self, spec: PerforatedContainerSpec, machine: str,
                user: str, ticket_class: str) -> LeaseT: ...

    def release(self, lease: LeaseT) -> object: ...


@dataclass(frozen=True)
class ClusterSource:
    """A fresh deployment per leg, torn down at close (the facade)."""

    cluster: ClusterManager

    def acquire(self, spec: PerforatedContainerSpec, machine: str,
                user: str, ticket_class: str) -> Deployment:
        return self.cluster.deploy(spec, machine, user=user)

    def release(self, lease: Deployment) -> None:
        self.cluster.teardown(lease, reason="ticket resolved")


@dataclass
class Leg(Generic[LeaseT]):
    """One machine of a session; login sets ``shell`` and ``client``."""

    machine: str
    certificate: Certificate
    lease: LeaseT
    shell: AdminShell = field(init=False)
    client: BrokerClient = field(init=False)


class TicketSession(Generic[LeaseT]):
    """One ticket's session; a context manager, or :meth:`open` then
    :meth:`close`. A failed :meth:`open` closes what it opened. The
    properties are the ticket machine's leg."""

    def __init__(self, org: "WatchITDeployment", ticket: Ticket,
                 admin: str, source: ContainerSource[LeaseT],
                 ttl: Optional[int] = None) -> None:
        self.org = org
        self.ticket = ticket
        self.admin = admin
        self.source = source
        self.ttl = ttl
        self.legs: List[Leg[LeaseT]] = []
        #: ``type: message`` of the exception the session closed on
        self.error: Optional[str] = None
        #: (stream, records) of every leg, read at close
        self.audit: List[Tuple[str, Sequence[AuditRecord]]] = []

    def _leg(self) -> Leg[LeaseT]:
        if not self.legs:
            raise RuntimeError("session is not open; use it as a context manager")
        return self.legs[0]

    @property
    def shell(self) -> AdminShell:
        """The admin's shell inside the perforated container."""
        return self._leg().shell

    @property
    def client(self) -> BrokerClient:
        """The permission-broker client (the ``PB`` command)."""
        return self._leg().client

    @property
    def certificate(self) -> Certificate:
        return self._leg().certificate

    @property
    def container(self) -> PerforatedContainer:
        return self._leg().lease.container

    def open(self) -> "TicketSession[LeaseT]":
        """Assign the ticket; lease, certify and log in every leg."""
        try:
            org, ticket = self.org, self.ticket
            if org.assignment_policy is not None:
                org.assignment_policy.assign(self.admin, ticket)
            else:
                ticket.assign_to(self.admin)
            ticket_class = ticket.predicted_class
            assert ticket_class is not None, "classify before opening"
            spec = org.images.get(ticket_class)
            machines = [ticket.machine]
            target = ticket.target_machine
            if spec.deploy_on_target_too and target and target != machines[0]:
                machines.append(target)
            for machine in machines:
                certificate = org.certificates.issue(
                    self.admin, ticket.ticket_id, machine, ticket_class,
                    ttl=self.ttl)
                lease = self.source.acquire(spec, machine,
                                            user=ticket.reporter,
                                            ticket_class=ticket_class)
                leg = Leg(machine, certificate, lease)
                self.legs.append(leg)
                leg.shell = lease.container.login(
                    self.admin, certificate=certificate,
                    authenticator=org.authenticators[machine])
                leg.client = BrokerClient(leg.shell, lease.broker,
                                          ticket_class=ticket_class)
        except BaseException as exc:
            self.close(exc)
            raise
        return self

    def close(self, exc: Optional[BaseException] = None) -> None:
        """Capture audit, revoke, release every leg, settle the status."""
        self.error = None if exc is None else f"{type(exc).__name__}: {exc}"
        # the live streams are the session's only audit copy: read them
        # before a release rotates them or a teardown drops them
        for leg in self.legs:
            tag = "" if leg.machine == self.ticket.machine else f"@{leg.machine}"
            container, broker = leg.lease.container, leg.lease.broker
            logs = (container.fs_audit, container.net_audit, broker.audit)
            self.audit.extend((stream + tag, log.records)
                              for stream, log in zip(AUDIT_STREAMS, logs)
                              if len(log))
        try:
            self.org.certificates.revoke_ticket(self.ticket.ticket_id)
        finally:
            for leg in self.legs:
                self.source.release(leg.lease)
        if exc is None:
            self.org.tickets.resolve(self.ticket)

    def __enter__(self) -> "TicketSession[LeaseT]":
        return self.open()

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 _tb: Optional[TracebackType]) -> bool:
        self.close(exc)
        return False

    def settle(self, *, session_id: str, started: float, org: str,
               boot: int, shard: Optional[int] = None,
               pool_hit: Optional[bool] = None
               ) -> Tuple["TicketResult", SessionTrail]:
        """The closed session's result and its durable trail: session and
        ticket rows, every leg's (revoked) certificate, every event."""
        from repro.api import TicketResult

        ticket = self.ticket
        duration = time.perf_counter() - started
        result = TicketResult(
            ticket_id=ticket.ticket_id,
            ticket_class=ticket.predicted_class or "?",
            machine=ticket.machine, admin=self.admin,
            resolved=self.error is None, error=self.error,
            audit_records=sum(len(records) for _, records in self.audit),
            duration_s=duration, latency_s=duration, shard=shard,
            pool_hit=pool_hit, session_id=session_id)
        return result, SessionTrail(
            # a session row is the result plus where and when it was stored
            session=SessionRow(**vars(result), org=org, boot=boot,
                               reporter=ticket.reporter,
                               created_at=time.time()),
            ticket=TicketRow(
                session_id=session_id, ticket_id=ticket.ticket_id, org=org,
                reporter=ticket.reporter, text=ticket.text,
                machine=ticket.machine, ticket_class=result.ticket_class,
                status=ticket.status.name),
            certificates=tuple(
                CertificateRow(session_id=session_id, revoked=True,
                               **vars(leg.certificate))
                for leg in self.legs),
            events=tuple(event_row_from_record(session_id, stream, record)
                         for stream, records in self.audit
                         for record in records))

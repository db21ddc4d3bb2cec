"""Trouble tickets and the ticket database.

The WatchIT workflow (Section 2): end-users report free-text tickets;
tickets are classified and assigned to IT personnel; the assignment mints a
time-limited certificate for a perforated container on the target machine.
Crucially, "System administrators ... cannot create trouble tickets on
their own initiative" — the database enforces that role separation, which
is the defense against fake tickets (Table 1, attack 9).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import TicketError


class Role(enum.Enum):
    """Actors in the IT workflow."""

    END_USER = "end-user"
    IT_ADMIN = "it-admin"
    SUPERVISOR = "supervisor"


class TicketStatus(enum.Enum):
    OPEN = "open"
    CLASSIFIED = "classified"
    ASSIGNED = "assigned"
    RESOLVED = "resolved"


_TICKET_SEQ = itertools.count(1)


@dataclass
class Ticket:
    """One user-reported trouble ticket.

    Attributes:
        text: the free-text problem description.
        reporter: reporting end-user (also the ``{user}`` for home-dir
            shares).
        machine: target machine name.
        predicted_class: classifier output (``T-1`` ... ``T-11``).
        reviewed: the paper's "classification ... reviewed by the user or a
            supervisor" flag.
        true_class: ground-truth label, present only on evaluation corpora.
        required_ops: ground-truth operations needed to resolve it (used by
            the Table 4 replay harness).
    """

    text: str
    reporter: str
    machine: str = "ws-01"
    #: remote machine named by the ticket (SSH/VNC targets); classes with
    #: ``deploy_on_target_too`` get a second container there.
    target_machine: Optional[str] = None
    ticket_id: int = field(default_factory=lambda: next(_TICKET_SEQ))
    status: TicketStatus = TicketStatus.OPEN
    predicted_class: Optional[str] = None
    reviewed: bool = False
    assignee: Optional[str] = None
    true_class: Optional[str] = None
    required_ops: List[Dict[str, object]] = field(default_factory=list)

    def classify_as(self, ticket_class: str, reviewed: bool = False) -> None:
        self.predicted_class = ticket_class
        self.reviewed = reviewed
        self.status = TicketStatus.CLASSIFIED

    def assign_to(self, admin: str) -> None:
        if self.predicted_class is None:
            raise TicketError(f"ticket {self.ticket_id} is not classified yet")
        self.assignee = admin
        self.status = TicketStatus.ASSIGNED


class TicketDatabase:
    """The organization's open tickets, with role enforcement.

    Memory keeps only live tickets: :meth:`resolve` settles a ticket and
    drops it, and the event store's ``TicketRow`` is its history.
    """

    def __init__(self):
        self._tickets: Dict[int, Ticket] = {}
        self._roles: Dict[str, Role] = {}

    # -- identity ----------------------------------------------------------

    def register_person(self, name: str, role: Role) -> None:
        self._roles[name] = role

    def role_of(self, name: str) -> Role:
        return self._roles.get(name, Role.END_USER)

    # -- ticket lifecycle ----------------------------------------------------

    def submit(self, reporter: str, text: str, machine: str = "ws-01",
               target_machine: Optional[str] = None) -> Ticket:
        """File a ticket. IT personnel may not create tickets (attack 9).

        Raises:
            TicketError: the reporter is registered as IT personnel, or the
                description is empty.
        """
        if self.role_of(reporter) is Role.IT_ADMIN:
            raise TicketError(
                f"{reporter} is IT personnel and cannot create trouble tickets")
        if not text.strip():
            raise TicketError("ticket description must not be empty")
        ticket = Ticket(text=text, reporter=reporter, machine=machine,
                        target_machine=target_machine)
        self._tickets[ticket.ticket_id] = ticket
        return ticket

    def resolve(self, ticket: Ticket) -> None:
        """Settle a ticket as resolved; it leaves the database."""
        ticket.status = TicketStatus.RESOLVED
        self._tickets.pop(ticket.ticket_id, None)

    def get(self, ticket_id: int) -> Ticket:
        """An open ticket; a resolved one raises like an unknown id."""
        ticket = self._tickets.get(ticket_id)
        if ticket is None:
            raise TicketError(f"no ticket {ticket_id}")
        return ticket

    def all(self) -> List[Ticket]:
        """Every open ticket, oldest first."""
        return sorted(self._tickets.values(), key=lambda t: t.ticket_id)

    def by_status(self, status: TicketStatus) -> List[Ticket]:
        """Open tickets in one status (never ``RESOLVED``)."""
        return [t for t in self.all() if t.status is status]

    def by_class(self, ticket_class: str) -> List[Ticket]:
        """Open tickets of one predicted class."""
        return [t for t in self.all() if t.predicted_class == ticket_class]

    def __len__(self) -> int:
        return len(self._tickets)

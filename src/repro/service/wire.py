"""The versioned ticket wire format: ``watchit-ticket/v1``.

``POST /tickets`` historically accepted an ad-hoc JSON shape (a bare
ticket object, or ``{"tickets": [...]}``). This module replaces that
with an explicit, versioned schema while keeping the old shape working
through a compat shim:

* **v1 requests** carry ``"schema": "watchit-ticket/v1"`` plus a
  ``tickets`` list; ``admin``, ``org``, and ``wait`` ride alongside.
* **Legacy requests** (no ``schema`` key) are upgraded in place — a bare
  ticket object becomes a one-element batch, ``{"tickets": [...]}``
  parses unchanged — so pre-v1 clients never break.
* A ticket may carry an optional ``target_machine`` (T-9's second
  machine): a known machine on the same shard as ``machine``.
* **Unknown schemas** are refused loudly (:class:`WireError` → 400): a
  future ``watchit-ticket/v2`` client talking to a v1 server gets a
  clear version error, never silent misparsing.

Responses stamp the same schema string, so clients can check what they
are speaking to before trusting field semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "WIRE_SCHEMA",
    "TicketRequest",
    "TicketResponse",
    "TicketSubmission",
    "WireError",
    "parse_ticket_request",
]

#: The wire-format identifier this service speaks.
WIRE_SCHEMA = "watchit-ticket/v1"

JsonDict = Dict[str, object]

#: machine -> shard map, or a set of names (targets checked by name only)
Machines = Union[Mapping[str, int], AbstractSet[str]]


class WireError(ValueError):
    """A request that does not parse as any supported wire shape."""


@dataclass(frozen=True)
class TicketSubmission:
    """One ticket on the wire: who reports what, from which machine."""

    reporter: str
    text: str
    machine: str
    target_machine: Optional[str] = None


@dataclass(frozen=True)
class TicketRequest:
    """One parsed ``POST /tickets`` request, shape questions settled.

    ``single`` records whether the client sent a bare ticket object
    (legacy one-ticket shape) — the response then unwraps ``results`` to
    a single row, exactly as the ad-hoc format did.
    """

    tickets: Tuple[TicketSubmission, ...]
    admin: Optional[str] = None
    org: str = "default"
    wait: bool = False
    single: bool = False

    def rows(self) -> List[Tuple[str, ...]]:
        """The ``(reporter, text, machine[, target_machine])`` rows
        admission expects."""
        return [(t.reporter, t.text, t.machine) if t.target_machine is None
                else (t.reporter, t.text, t.machine, t.target_machine)
                for t in self.tickets]


@dataclass(frozen=True)
class TicketResponse:
    """The ``POST /tickets`` reply, stamped with the wire schema."""

    accepted: int
    rejected: int
    statuses: Tuple[str, ...] = ()
    results: Optional[object] = None
    extra: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> JsonDict:
        payload: JsonDict = {
            "schema": WIRE_SCHEMA,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "statuses": list(self.statuses),
        }
        if self.results is not None:
            payload["results"] = self.results
        payload.update(self.extra)
        return payload


def _parse_submission(row: object, machines: Machines) -> TicketSubmission:
    if not isinstance(row, dict):
        raise WireError("each ticket must be a JSON object")
    reporter = row.get("reporter")
    text = row.get("text")
    machine = row.get("machine")
    if not (isinstance(reporter, str) and reporter):
        raise WireError("each ticket needs a non-empty reporter")
    if not (isinstance(text, str) and text.strip()):
        raise WireError("each ticket needs non-empty text")
    if not (isinstance(machine, str) and machine in machines):
        raise WireError(f"unknown machine {machine!r}")
    target = row.get("target_machine")
    if target is not None:
        if not (isinstance(target, str) and target in machines):
            raise WireError(f"unknown target machine {target!r}")
        shards: Mapping[str, int] = (
            machines if isinstance(machines, Mapping) else {})
        if shards.get(target) != shards.get(machine):
            raise WireError(
                f"target machine {target!r} is on shard {shards[target]}, "
                f"machine {machine!r} on shard {shards[machine]}: a session "
                f"cannot span shards")
    return TicketSubmission(reporter=reporter, text=text, machine=machine,
                            target_machine=target)


def parse_ticket_request(body: JsonDict, machines: Machines,
                         max_tickets: int = 10_000) -> TicketRequest:
    """Parse one request body — v1 or legacy — into a :class:`TicketRequest`.

    Raises:
        WireError: malformed body, unknown schema version, too many
            tickets, or any invalid ticket row.
    """
    schema = body.get("schema")
    if schema is not None and schema != WIRE_SCHEMA:
        raise WireError(
            f"unsupported wire schema {schema!r} (this service speaks "
            f"{WIRE_SCHEMA})")
    if schema is not None and "tickets" not in body:
        raise WireError(f"{WIRE_SCHEMA} requests carry a 'tickets' list")
    # legacy compat shim: a bare ticket object is a one-element batch
    single = "tickets" not in body
    rows = body.get("tickets", [body])
    if not isinstance(rows, list) or not rows:
        raise WireError("'tickets' must be a non-empty list")
    if len(rows) > max_tickets:
        raise WireError(f"at most {max_tickets} tickets per request")
    tickets = tuple(_parse_submission(row, machines) for row in rows)
    admin = body.get("admin")
    if admin is not None and not isinstance(admin, str):
        raise WireError("admin must be a string")
    org = body.get("org", "default")
    if not isinstance(org, str) or not org:
        raise WireError("org must be a non-empty string")
    return TicketRequest(tickets=tickets, admin=admin, org=org,
                         wait=bool(body.get("wait")), single=single)

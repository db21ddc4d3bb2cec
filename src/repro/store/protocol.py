"""The repository protocol: typed rows + the :class:`EventStore` API.

WatchIT's value proposition is the audit trail — yet an in-memory
reproduction loses every record, certificate, and metric when the
process exits. This package makes history a first-class, queryable
artifact behind one repository protocol: every component that wants to
touch history (the session lifecycle's close, the HTTP service, the
CLI's ``replay``/``history`` verbs, the ``repro.api`` facade) goes
through an :class:`EventStore` — never through scattered
in-memory lists.

Two backends implement the protocol:

* :class:`~repro.store.memory.MemoryStore` — zero-dependency, keeps the
  pre-store behaviour (history lives and dies with the process);
* :class:`~repro.store.sqlite.SQLiteStore` — WAL-mode SQLite with a
  schema-migration table; survives restarts, powers forensic replay.

The unit of durability is the :class:`SessionTrail`: one served ticket's
session row, ticket row, certificates, and every audit event its
containers emitted, written atomically by :meth:`EventStore.put_trail`.
Audit events keep their :class:`~repro.itfs.audit.AppendOnlyLog` hash
chain fields (``prev_digest``/``digest``) verbatim, so the chain can be
re-verified from persisted rows alone — across process restarts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

from repro.itfs.audit import AuditRecord

__all__ = [
    "AlertRow",
    "AuditEventRow",
    "BenchRunRow",
    "CertificateRow",
    "EventStore",
    "SessionRow",
    "SessionTrail",
    "TicketRow",
    "event_row_from_record",
    "record_from_event_row",
]

#: A container's audit streams (a T-9 target's are tagged ``fs@<machine>``).
AUDIT_STREAMS = ("fs", "net", "broker")


@dataclass(frozen=True)
class SessionRow:
    """One served session — the store-side twin of a ``TicketResult``."""

    session_id: str
    org: str
    boot: int
    shard: Optional[int]
    ticket_id: int
    ticket_class: str
    machine: str
    admin: str
    reporter: str
    resolved: bool
    error: Optional[str]
    audit_records: int
    duration_s: float
    latency_s: float
    pool_hit: Optional[bool]
    created_at: float

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class TicketRow:
    """The ticket a session served (text + classification outcome)."""

    session_id: str
    ticket_id: int
    org: str
    reporter: str
    text: str
    machine: str
    ticket_class: str
    status: str

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class AuditEventRow:
    """One :class:`~repro.itfs.audit.AuditRecord`, chain fields intact.

    ``(session_id, stream, seq)`` is the primary key; each session's
    per-stream epoch log starts at the genesis digest, so every
    ``(session, stream)`` chain is self-contained and verifiable from
    these rows alone. A T-9 target's streams are ``<stream>@<machine>``.
    """

    session_id: str
    stream: str
    seq: int
    time: int
    actor: str
    op: str
    path: str
    decision: str
    rule: str
    details: Dict[str, object]
    prev_digest: str
    digest: str

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class CertificateRow:
    """A login certificate minted for a session (at rest, post-revoke)."""

    session_id: str
    serial: int
    admin: str
    ticket_id: int
    machine: str
    ticket_class: str
    issued_at: int
    expires_at: int
    signature: str
    revoked: bool

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class AlertRow:
    """One anomaly-detection alert."""

    rule: str
    severity: str
    message: str
    created_at: float
    session_id: Optional[str] = None
    alert_id: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class BenchRunRow:
    """One persisted benchmark/metrics run (an ``ExperimentReport`` at rest)."""

    name: str
    created_at: float
    params: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    artifacts: Dict[str, object] = field(default_factory=dict)
    run_id: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class SessionTrail:
    """Everything one session left behind — the atomic unit of durability.

    Pickle-safe by construction: process-mode workers attach the trail to
    their :class:`~repro.controlplane.channel.ResultEnvelope` and the
    parent persists it on fold-back, so the store never crosses a
    process boundary.
    """

    session: SessionRow
    ticket: Optional[TicketRow]
    certificates: Tuple[CertificateRow, ...] = ()
    events: Tuple[AuditEventRow, ...] = ()

    def stream_events(self, stream: str) -> Tuple[AuditEventRow, ...]:
        return tuple(e for e in self.events if e.stream == stream)

    def to_dict(self) -> Dict[str, object]:
        return {
            "session": self.session.to_dict(),
            "ticket": None if self.ticket is None else self.ticket.to_dict(),
            "certificates": [c.to_dict() for c in self.certificates],
            "events": [e.to_dict() for e in self.events],
        }


def event_row_from_record(session_id: str, stream: str,
                          record: AuditRecord) -> AuditEventRow:
    """Flatten one sealed :class:`AuditRecord` for the store.

    The digest commits to the record's canonical JSON, and JSON
    round-tripping ``details`` is digest-stable, so persisting and
    rebuilding the record preserves chain verification.
    """
    return AuditEventRow(
        session_id=session_id, stream=stream, seq=record.seq,
        time=record.time, actor=record.actor, op=record.op,
        path=record.path, decision=record.decision, rule=record.rule,
        details=dict(record.details), prev_digest=record.prev_digest,
        digest=record.digest)


def record_from_event_row(row: AuditEventRow) -> AuditRecord:
    """Rebuild the sealed :class:`AuditRecord` a row was flattened from."""
    return AuditRecord(
        seq=row.seq, time=row.time, actor=row.actor, op=row.op,
        path=row.path, decision=row.decision, rule=row.rule,
        details=dict(row.details), prev_digest=row.prev_digest,
        digest=row.digest)


class EventStore(Protocol):
    """The repository protocol — the one sanctioned way to touch history.

    Append surface: :meth:`begin_boot` (a new process-lifetime epoch, so
    session ids never collide across restarts), :meth:`put_trail` (the
    atomic session write), :meth:`put_bench_run`, :meth:`put_alert`.
    Query surface: typed filters over sessions, trails, audit events,
    certificates, bench runs, and alerts. Implementations must be
    thread-safe: thread-mode shard workers write concurrently.
    """

    # -- append --------------------------------------------------------

    def begin_boot(self) -> int:
        """Start a new boot epoch; returns its unique id (monotonic)."""
        ...

    def put_trail(self, trail: SessionTrail) -> None:
        """Persist one session trail atomically (all rows or none)."""
        ...

    def put_bench_run(self, row: BenchRunRow) -> int:
        """Persist one bench/metrics run; returns its run id."""
        ...

    def put_alert(self, row: AlertRow) -> int:
        """Persist one anomaly alert; returns its alert id."""
        ...

    # -- query ---------------------------------------------------------

    def get_session(self, session_id: str) -> Optional[SessionRow]:
        ...

    def get_trail(self, session_id: str) -> Optional[SessionTrail]:
        ...

    def sessions(self, org: Optional[str] = None,
                 ticket_class: Optional[str] = None,
                 machine: Optional[str] = None,
                 admin: Optional[str] = None,
                 limit: Optional[int] = None) -> List[SessionRow]:
        """Newest-first session rows matching every given filter."""
        ...

    def audit_events(self, session_id: str,
                     stream: Optional[str] = None) -> List[AuditEventRow]:
        """One session's events, ordered by (stream, seq)."""
        ...

    def certificates(self, session_id: Optional[str] = None,
                     admin: Optional[str] = None) -> List[CertificateRow]:
        ...

    def bench_runs(self, name: Optional[str] = None,
                   limit: Optional[int] = None) -> List[BenchRunRow]:
        """Oldest-first bench runs (a time series) matching the filters."""
        ...

    def alerts(self, limit: Optional[int] = None) -> List[AlertRow]:
        ...

    def counts(self) -> Dict[str, int]:
        """Row counts per table — the cheap health/summary probe."""
        ...

    # -- lifecycle -----------------------------------------------------

    def flush(self) -> None:
        """Make every prior write durable (no-op for memory)."""
        ...

    def close(self) -> None:
        ...

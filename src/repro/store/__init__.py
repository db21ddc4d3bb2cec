"""Durable event store: the repository API over WatchIT's history.

Public surface:

* :class:`EventStore` — the repository protocol (typed query/append API
  over sessions, tickets, audit events, certificates, alerts, and bench
  runs); the one sanctioned way any component touches history.
* :class:`MemoryStore` — default zero-dependency backend (pre-store
  behaviour: history dies with the process).
* :class:`SQLiteStore` — WAL-mode SQLite backend with a schema-migration
  table; survives restarts and powers ``repro replay`` / ``repro
  history``.
* :mod:`repro.store.replay` — chain-verified forensic reconstruction of
  a session's full decision trail from persisted rows alone.
"""

from repro.store.bench import report_to_row, row_to_report
from repro.store.memory import MemoryStore
from repro.store.protocol import (
    AUDIT_STREAMS,
    AlertRow,
    AuditEventRow,
    BenchRunRow,
    CertificateRow,
    EventStore,
    SessionRow,
    SessionTrail,
    TicketRow,
    event_row_from_record,
    record_from_event_row,
)
from repro.store.replay import (
    format_trail,
    rebuild_log,
    trail_to_dict,
    verify_and_format,
    verify_trail,
)
from repro.store.sqlite import MIGRATIONS, SCHEMA_VERSION, SQLiteStore

__all__ = [
    "AUDIT_STREAMS",
    "AlertRow",
    "AuditEventRow",
    "BenchRunRow",
    "CertificateRow",
    "EventStore",
    "MIGRATIONS",
    "MemoryStore",
    "SCHEMA_VERSION",
    "SQLiteStore",
    "SessionRow",
    "SessionTrail",
    "TicketRow",
    "event_row_from_record",
    "format_trail",
    "rebuild_log",
    "record_from_event_row",
    "report_to_row",
    "row_to_report",
    "trail_to_dict",
    "verify_and_format",
    "verify_trail",
]

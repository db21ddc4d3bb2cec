"""Tamper-evident, append-only audit logging.

The paper requires that IT activity be "logged in real-time to a secure
append-only storage device" and that log files be protected by replication
(Table 1, attack 6). We implement an append-only log whose records form a
SHA-256 hash chain — any in-place modification, deletion, or reordering is
detected by :meth:`AppendOnlyLog.verify` — with synchronous replication to
remote stores.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Literal, Optional

from repro.errors import IntegrityError

GENESIS_DIGEST = "0" * 64


@dataclass
class AuditRecord:
    """One audit event.

    ``digest`` commits to the record contents *and* the previous record's
    digest, forming the chain.
    """

    seq: int
    time: int
    actor: str
    op: str
    path: str
    decision: str
    rule: str = ""
    details: Dict[str, object] = field(default_factory=dict)
    prev_digest: str = GENESIS_DIGEST
    digest: str = ""

    def canonical(self) -> str:
        """Deterministic serialization of everything the digest covers."""
        body = {
            "seq": self.seq, "time": self.time, "actor": self.actor,
            "op": self.op, "path": self.path, "decision": self.decision,
            "rule": self.rule, "details": self.details,
            "prev_digest": self.prev_digest,
        }
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    def compute_digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    def seal(self) -> "AuditRecord":
        self.digest = self.compute_digest()
        return self


class AppendOnlyLog:
    """A hash-chained audit log with optional replicas.

    Replicas receive every sealed record at append time (the paper's
    "replicated on a remote append-only storage"); recovery after local
    tampering reads from any intact replica.
    """

    def __init__(self, name: str = "audit",
                 clock: Optional[Callable[[], int]] = None):
        self.name = name
        self._records: List[AuditRecord] = []
        self._clock = clock or (lambda: len(self._records))
        self._replicas: List["AppendOnlyLog"] = []

    # -- writing -----------------------------------------------------------

    def append(self, actor: str, op: str, path: str, decision: str,
               rule: str = "", **details) -> AuditRecord:
        """Seal and store a new record; fan out to replicas."""
        prev = self._records[-1].digest if self._records else GENESIS_DIGEST
        record = AuditRecord(
            seq=len(self._records), time=self._clock(), actor=actor, op=op,
            path=path, decision=decision, rule=rule, details=dict(details),
            prev_digest=prev,
        ).seal()
        self._records.append(record)
        for replica in self._replicas:
            replica._receive(record)
        return record

    def _receive(self, record: AuditRecord) -> None:
        """Mirror-side ingestion (records arrive already sealed).

        Stores an independent copy: local tampering with the primary's
        record objects must not propagate into the replica.
        """
        self._records.append(replace(record, details=dict(record.details)))

    def add_replica(self, replica: "AppendOnlyLog") -> None:
        """Mirror appends into ``replica``: an exact, digest-identical copy
        of this log (supports :meth:`divergence_from`)."""
        self._replicas.append(replica)

    # -- reading -----------------------------------------------------------

    @property
    def records(self) -> List[AuditRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def filter(self, op: Optional[str] = None, decision: Optional[str] = None,
               actor: Optional[str] = None,
               path_prefix: Optional[str] = None) -> List[AuditRecord]:
        """Query helper for anomaly-detection pipelines and tests."""
        out = []
        for r in self._records:
            if op is not None and r.op != op:
                continue
            if decision is not None and r.decision != decision:
                continue
            if actor is not None and r.actor != actor:
                continue
            if path_prefix is not None and not r.path.startswith(path_prefix):
                continue
            out.append(r)
        return out

    def counts_by(self, key: str) -> Dict[str, int]:
        """Histogram over a record attribute (op / decision / actor)."""
        out: Dict[str, int] = {}
        for r in self._records:
            value = getattr(r, key)
            out[value] = out.get(value, 0) + 1
        return out

    # -- integrity ---------------------------------------------------------

    def verify(self) -> Literal[True]:
        """Validate the whole chain; tampering is signalled by *raising*.

        The return value is only ever ``True`` (so ``assert log.verify()``
        reads naturally); it is **not** a tamper signal — callers that want
        a boolean to branch on must use :meth:`is_intact` instead.

        Raises:
            IntegrityError: a record was modified, removed, or reordered.
        """
        prev = GENESIS_DIGEST
        for i, record in enumerate(self._records):
            if record.seq != i:
                raise IntegrityError(f"{self.name}: sequence gap at {i}")
            if record.prev_digest != prev:
                raise IntegrityError(f"{self.name}: chain break at seq {i}")
            if record.compute_digest() != record.digest:
                raise IntegrityError(f"{self.name}: record {i} was tampered with")
            prev = record.digest
        return True

    def is_intact(self) -> bool:
        """Non-raising integrity check: True iff the whole chain verifies."""
        try:
            self.verify()
        except IntegrityError:
            return False
        return True

    def divergence_from(self, replica: "AppendOnlyLog") -> Optional[int]:
        """First sequence number at which this log differs from ``replica``.

        None means this log is a prefix-consistent copy (or identical).
        """
        for mine, theirs in zip(self._records, replica._records):
            if mine.digest != theirs.digest:
                return mine.seq
        if len(self._records) < len(replica._records):
            return len(self._records)
        return None

    def tail(self, n: int = 10) -> Iterable[AuditRecord]:
        return self._records[-n:]

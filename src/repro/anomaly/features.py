"""Feature extraction from WatchIT audit logs.

The paper's logs exist "for later analysis and anomaly detection" (§1,
§5.4) and it argues the broker log is "sufficiently succinct to be
inspected and analyzed". This module turns one session's audit records
(ITFS + network + broker) into a fixed feature vector suitable for the
baseline detector in :mod:`repro.anomaly.detector`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.itfs.audit import AuditRecord

#: feature vector layout (order matters: it defines the matrix columns)
FEATURE_NAMES: Tuple[str, ...] = (
    "total_ops",
    "reads",
    "writes",
    "denials",
    "denial_ratio",
    "distinct_paths",
    "document_touches",
    "watchit_touches",
    "net_packets",
    "net_bytes",
    "net_denials",
    "escalations",
    "escalation_denials",
    "sensitive_path_touches",
)

#: path prefixes considered sensitive for the feature extractor
SENSITIVE_PREFIXES = ("/etc/shadow", "/opt/watchit", "/dev/mem", "/dev/kmem",
                      "/root")

_DOCUMENT_EXTS = (".docx", ".doc", ".pdf", ".xlsx", ".xls", ".pptx", ".jpg",
                  ".jpeg", ".png")


@dataclass
class SessionLog:
    """All audit records attributed to one administrator session."""

    session_id: str
    records: List[AuditRecord] = field(default_factory=list)
    label: str = "unknown"  # "benign" / "malicious" on labelled corpora

    @classmethod
    def from_container(cls, session_id: str, container,
                       broker=None, label: str = "unknown") -> "SessionLog":
        """Collect a session's records from its container (+ broker)."""
        records = list(container.fs_audit.records)
        records += list(container.net_audit.records)
        if broker is not None:
            records += list(broker.audit.records)
        return cls(session_id=session_id, records=records, label=label)

    @classmethod
    def from_trail(cls, trail, label: str = "unknown") -> "SessionLog":
        """Rebuild a stored session's records (every stream) from its
        :class:`~repro.store.SessionTrail`."""
        from repro.store.protocol import record_from_event_row
        return cls(session_id=trail.session.session_id,
                   records=[record_from_event_row(e) for e in trail.events],
                   label=label)


def extract_features(log: SessionLog) -> np.ndarray:
    """Map one session log to the FEATURE_NAMES vector."""
    reads = writes = denials = 0
    net_packets = net_bytes = net_denials = 0
    escalations = escalation_denials = 0
    document_touches = watchit_touches = sensitive = 0
    paths = set()
    for record in log.records:
        is_net = record.op.startswith("net-")
        is_pb = record.op.startswith("pb-")
        denied = record.decision == "deny"
        if is_net:
            net_packets += 1
            net_bytes += int(record.details.get("bytes", 0))
            net_denials += denied
            continue
        if is_pb:
            escalations += 1
            escalation_denials += denied
            continue
        paths.add(record.path)
        denials += denied
        if record.op == "read":
            reads += 1
        elif record.op in ("write", "create", "truncate"):
            writes += 1
        lowered = record.path.lower()
        if lowered.endswith(_DOCUMENT_EXTS):
            document_touches += 1
        if any(lowered.startswith(p) for p in SENSITIVE_PREFIXES):
            watchit_touches += record.path.startswith("/opt/watchit")
            sensitive += 1
    total = max(len(log.records), 1)
    values = {
        "total_ops": float(len(log.records)),
        "reads": float(reads),
        "writes": float(writes),
        "denials": float(denials),
        "denial_ratio": (denials + net_denials + escalation_denials) / total,
        "distinct_paths": float(len(paths)),
        "document_touches": float(document_touches),
        "watchit_touches": float(watchit_touches),
        "net_packets": float(net_packets),
        "net_bytes": float(net_bytes),
        "net_denials": float(net_denials),
        "escalations": float(escalations),
        "escalation_denials": float(escalation_denials),
        "sensitive_path_touches": float(sensitive),
    }
    return np.array([values[name] for name in FEATURE_NAMES])


def feature_matrix(logs: Sequence[SessionLog]) -> np.ndarray:
    """Stack session feature vectors into an (n_sessions, n_features) matrix."""
    if not logs:
        return np.zeros((0, len(FEATURE_NAMES)))
    return np.vstack([extract_features(log) for log in logs])

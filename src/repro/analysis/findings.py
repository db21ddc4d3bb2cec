"""Finding/report datatypes for the static perforation linter.

A :class:`Finding` is one structured diagnostic keyed by a stable rule ID
(``WIT001`` ...); a :class:`LintReport` aggregates findings over one or
many lint targets and renders them for humans (:meth:`LintReport.format`)
or machines (:meth:`LintReport.to_json`, :meth:`LintReport.to_sarif`).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple


class Severity(enum.IntEnum):
    """Finding severity; comparable (``ERROR > WARNING > INFO``)."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @property
    def sarif_level(self) -> str:
        """SARIF ``level`` string for this severity."""
        return {Severity.INFO: "note", Severity.WARNING: "warning",
                Severity.ERROR: "error"}[self]

    @classmethod
    def parse(cls, label: str) -> "Severity":
        try:
            return cls[label.upper()]
        except KeyError:
            valid = ", ".join(s.label for s in cls)
            raise ValueError(
                f"unknown severity {label!r} (expected one of: {valid})"
            ) from None


@dataclass(frozen=True)
class RuleInfo:
    """Catalog entry for one linter rule (rendered into SARIF and docs)."""

    rule_id: str
    title: str
    severity: Severity
    description: str


@dataclass(frozen=True)
class Finding:
    """One structured diagnostic emitted by a checker.

    Attributes:
        rule_id: stable checker identifier (``WIT001`` ...).
        severity: effective severity of *this* occurrence (a rule may
            escalate, e.g. escape paths go warning -> error when even the
            capability gate is open).
        subject: the ticket class / spec name the finding is about.
        location: dotted path into the configuration (``spec.fs_shares[1]``,
            ``itfs_policy.rules[0]``, ``broker_policy.allow_tcb_update``).
        message: one-line human explanation.
        evidence: machine-readable supporting data (JSON-serializable).
    """

    rule_id: str
    severity: Severity
    subject: str
    location: str
    message: str
    evidence: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "severity": self.severity.label,
            "subject": self.subject,
            "location": self.location,
            "message": self.message,
            "evidence": dict(self.evidence),
        }


def _finding_sort_key(finding: Finding) -> Tuple[int, str, str, str, str]:
    # severity-descending, then stable lexicographic identity: report
    # ordering must never churn between runs over the same configuration.
    return (-int(finding.severity), finding.subject, finding.rule_id,
            finding.location, finding.message)


@dataclass
class LintReport:
    """Aggregated findings for one or many lint targets."""

    findings: Tuple[Finding, ...] = ()
    targets: Tuple[str, ...] = ()
    rule_catalog: Tuple[RuleInfo, ...] = ()

    @classmethod
    def collect(cls, findings: Iterable[Finding], targets: Iterable[str],
                rule_catalog: Iterable[RuleInfo] = ()) -> "LintReport":
        ordered = tuple(sorted(findings, key=_finding_sort_key))
        return cls(findings=ordered, targets=tuple(targets),
                   rule_catalog=tuple(rule_catalog))

    # -- queries ---------------------------------------------------------

    def by_severity(self, severity: Severity) -> List[Finding]:
        return [f for f in self.findings if f.severity is severity]

    @property
    def errors(self) -> List[Finding]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Finding]:
        return self.by_severity(Severity.WARNING)

    def by_rule(self, rule_id: str) -> List[Finding]:
        return [f for f in self.findings if f.rule_id == rule_id]

    def for_subject(self, subject: str) -> List[Finding]:
        return [f for f in self.findings if f.subject == subject]

    def worst_severity(self) -> Optional[Severity]:
        return max((f.severity for f in self.findings), default=None)

    def fails(self, fail_on: Severity = Severity.ERROR) -> bool:
        """True when any finding reaches the ``fail_on`` threshold."""
        worst = self.worst_severity()
        return worst is not None and worst >= fail_on

    def counts(self) -> Dict[str, int]:
        counts = {s.label: 0 for s in Severity}
        for finding in self.findings:
            counts[finding.severity.label] += 1
        return counts

    # -- renderings ------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """Machine-readable report (the ``repro lint --json`` payload)."""
        return {
            "linter": "watchit-perforation-linter",
            "targets": list(self.targets),
            "summary": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_sarif(self) -> Dict[str, object]:
        """SARIF report via the shared writer (:mod:`repro.analysis.sarif`)."""
        from repro.analysis.sarif import report_to_sarif
        return report_to_sarif(self)

    def format(self, title: str = "Perforation lint") -> str:
        """Human-readable report."""
        counts = self.counts()
        lines = [f"{title} — {len(self.targets)} target(s), "
                 f"{counts['error']} error(s), {counts['warning']} warning(s), "
                 f"{counts['info']} info"]
        for finding in self.findings:
            lines.append(f"  {finding.severity.label.upper():<7} "
                         f"{finding.rule_id}  {finding.subject:<6} "
                         f"[{finding.location}] {finding.message}")
        if not self.findings:
            lines.append("  clean: no findings")
        return "\n".join(lines)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def __len__(self) -> int:
        return len(self.findings)

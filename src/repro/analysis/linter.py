"""The perforation linter: runs every checker over lint targets.

The linter proves least-privilege claims *before* deployment: it computes
the effective privilege set of each ``(spec, itfs_policy, broker_policy)``
triple and emits structured findings. ``repro lint`` is the CLI front end;
:func:`lint_catalog` is the programmatic entry point used by the tier-1
regression gate (the shipped Table 3 catalog must lint clean at
severity=error) and the benchmark suite.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.analysis.checkers import CONFIG_CHECKERS, Checker
from repro.analysis.escape import ESCAPE_CHECKERS
from repro.analysis.findings import Finding, LintReport, RuleInfo
from repro.analysis.model import LintTarget, builtin_catalog
from repro.broker.policy import BrokerPolicy
from repro.containit.spec import PerforatedContainerSpec


def default_checkers() -> List[Checker]:
    """Fresh instances of every checker, the escape rules WIT001-005 last."""
    return [cls() for cls in CONFIG_CHECKERS + ESCAPE_CHECKERS]


def rule_catalog() -> Dict[str, RuleInfo]:
    """rule_id -> RuleInfo over every default checker (docs/SARIF)."""
    catalog = {info.rule_id: info for checker in default_checkers()
               for info in checker.rules}
    return dict(sorted(catalog.items()))


class PerforationLinter:
    """Static analysis pass over perforated-container configurations."""

    def __init__(self, checkers: Optional[Iterable[Checker]] = None):
        self.checkers: List[Checker] = list(
            checkers if checkers is not None else default_checkers())

    def lint(self, target: LintTarget) -> LintReport:
        return self.lint_many([target])

    def lint_many(self, targets: Iterable[LintTarget]) -> LintReport:
        targets = list(targets)
        findings: List[Finding] = []
        for target in targets:
            for checker in self.checkers:
                findings.extend(checker.check(target))
        return LintReport.collect(
            findings, targets=[t.name for t in targets],
            rule_catalog=rule_catalog().values())


def lint_catalog(specs: Optional[Dict[str, PerforatedContainerSpec]] = None,
                 broker_policy: Optional[BrokerPolicy] = None,
                 linter: Optional[PerforationLinter] = None) -> LintReport:
    """Lint a spec catalog (default: the full built-in catalog).

    ``broker_policy`` is a per-class :class:`BrokerPolicy` table; each
    spec is paired with the class policy it would get at runtime.
    """
    specs = builtin_catalog() if specs is None else specs
    linter = linter or PerforationLinter()
    targets = []
    for name in sorted(specs, key=lambda n: (len(n), n)):
        spec = specs[name]
        class_policy = broker_policy.policy_for(name) \
            if broker_policy is not None else None
        targets.append(LintTarget(spec=spec, broker_policy=class_policy))
    return linter.lint_many(targets)

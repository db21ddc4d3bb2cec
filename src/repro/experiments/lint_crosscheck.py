"""Lint + cross-check runner: the least-privilege verification experiment.

Complements the dynamic Table 1/Table 3 experiments with the static side
of the story: lint the full built-in spec catalog (the linter must report
zero severity=error findings on the shipped configuration) and cross-check
the static escape verdicts against the live Table 1 attacks per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis import LintReport, lint_catalog
from repro.analysis.modelcheck.replay import CrossCheckReport, run_crosscheck
from repro.broker.policy import permissive_policy
from repro.containit.spec import PerforatedContainerSpec


@dataclass
class LintCrossCheckResult:
    """Catalog lint report + static/dynamic consistency report."""

    lint: LintReport
    crosscheck: CrossCheckReport

    @property
    def clean(self) -> bool:
        """Catalog has no error findings and static agrees with dynamic."""
        return not self.lint.errors and self.crosscheck.consistent

    def to_dict(self) -> Dict[str, object]:
        return {
            "lint": self.lint.to_json(),
            "crosscheck": [row.to_dict() for row in self.crosscheck.rows],
            "clean": self.clean,
        }

    def format(self) -> str:
        lines = ["Static least-privilege verification", "=" * 48,
                 self.lint.format(), "", self.crosscheck.format(), "",
                 f"verdict: {'CLEAN' if self.clean else 'FINDINGS/DRIFT'}"]
        return "\n".join(lines)


def run_lint_crosscheck(
        specs: Optional[Dict[str, PerforatedContainerSpec]] = None
) -> LintCrossCheckResult:
    """Lint the catalog and cross-check it against the dynamic attacks."""
    lint = lint_catalog(specs=specs, broker_policy=permissive_policy())
    crosscheck = run_crosscheck(specs=specs)
    return LintCrossCheckResult(lint=lint, crosscheck=crosscheck)

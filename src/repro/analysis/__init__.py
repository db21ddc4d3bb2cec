"""Static analysis of perforated-container configurations.

The *perforation linter* proves least-privilege claims about a
``(spec, itfs_policy, broker_policy)`` triple **before** any container is
deployed: it reads the gate walk of the model checker's escape actions
(the one statement of the capability/namespace/path gates the kernel
layer enforces), flags over-privilege and dead policy rules, and
reports monitoring gaps — each finding keyed by a stable ``WIT*`` rule ID
(see ``docs/static_analysis.md`` for the catalog).

Quickstart::

    from repro.analysis import LintTarget, PerforationLinter, lint_catalog

    report = lint_catalog()           # lint the shipped Table 3 catalog
    assert not report.errors          # the tier-1 regression gate
    print(report.format())

The same gate walks are validated against the *dynamic* Table 1 attack
suite by :func:`run_crosscheck` — a route that gets past every isolation
gate statically must coincide with the attack not being blocked by a
namespace/path isolation layer at runtime.

The escape actions are transitions of :mod:`repro.analysis.modelcheck`,
which bounds-checks *multi-step* escape chains (broker grant -> mount ->
syscall compositions the single-route rules cannot see) and replays
every counterexample witness against the live rig — ``repro
verify-model`` is the front end.
"""

from repro.analysis.checkers import (
    Checker,
    default_checkers,
    rule_catalog,
)
from repro.analysis.findings import (
    Finding,
    LintReport,
    RuleInfo,
    Severity,
)
from repro.analysis.linter import (
    PerforationLinter,
    builtin_catalog,
    lint_catalog,
)
from repro.analysis.model import (
    LintTarget,
    template_covers,
    templates_overlap,
)
from repro.analysis.modelcheck import (
    Gate,
    ModelCheckResult,
    Reachability,
    VerifyModelReport,
    check_target,
    overprivileged_fixture_target,
    run_verify_model,
)
from repro.analysis.modelcheck.replay import (
    CrossCheckReport,
    CrossCheckRow,
    crosscheck_spec,
    run_crosscheck,
)
from repro.analysis.sarif import merge_reports, report_to_sarif

__all__ = [
    "Checker",
    "CrossCheckReport",
    "CrossCheckRow",
    "Finding",
    "Gate",
    "GeneralizationPolicy",
    "LintReport",
    "LintTarget",
    "MiningReport",
    "ModelCheckResult",
    "ObservedUsage",
    "PerforationLinter",
    "Reachability",
    "RuleInfo",
    "Severity",
    "SessionTrace",
    "TraceRecorder",
    "VerifyModelReport",
    "builtin_catalog",
    "check_target",
    "crosscheck_spec",
    "default_checkers",
    "lint_catalog",
    "merge_reports",
    "mining_rule_catalog",
    "overprivileged_fixture_target",
    "report_to_sarif",
    "rule_catalog",
    "run_crosscheck",
    "run_mining",
    "run_verify_model",
    "synthesize_spec",
    "template_covers",
    "templates_overlap",
]

#: policy-miner names resolved lazily: the mining runner pulls in the
#: experiment rig (and through it most of the framework), which must not
#: ride along on every ``import repro.analysis``.
_MINING_EXPORTS = frozenset({
    "GeneralizationPolicy", "MiningReport", "ObservedUsage",
    "SessionTrace", "TraceRecorder", "mining_rule_catalog", "run_mining",
    "synthesize_spec",
})


def __getattr__(name):
    if name in _MINING_EXPORTS:
        from repro.analysis import mining
        return getattr(mining, name)
    raise AttributeError(
        f"module 'repro.analysis' has no attribute {name!r}")

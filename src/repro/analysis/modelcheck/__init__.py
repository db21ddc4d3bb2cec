"""Escape-chain model checker: bounded reachability over privilege states.

This package holds the repo's one privilege model. An abstract
interpreter (:mod:`state`, :mod:`actions`) mirrors the gates
:mod:`repro.kernel.syscalls` and :mod:`repro.broker.policy` enforce; the
five single-route escape actions state their kernel gates as named
:class:`~repro.analysis.modelcheck.actions.Gate` s, which the WIT001–005
linter rules read from a target's initial state (the one-step question).
A bounded BFS (:mod:`engine`) answers the multi-step question — chains
where a broker grant, a mount, or a namespace join changes the privilege
state mid-attack — classifying escape predicates as unreachable /
reachable / reachable-but-audited with minimal counterexample witnesses.
:mod:`replay` validates both against the real simulated kernel + ITFS +
broker: the layer cross-check compares each escape action's gate walk
with its live Table 1 attack, and the witness replay executes every
verdict. :mod:`runner` packages it all behind ``repro verify-model``.
"""

from repro.analysis.modelcheck.actions import (
    ANY_DESTINATION,
    AbstractAction,
    Gate,
    action_catalog,
    escape_actions,
)
from repro.analysis.modelcheck.engine import (
    DEFAULT_DEPTH,
    MODELCHECK_RULES,
    ModelCheckResult,
    PredicateVerdict,
    Reachability,
    SearchStats,
    Step,
    check_target,
    modelcheck_rule_catalog,
)
from repro.analysis.modelcheck.replay import ReplayRow, replay_target
from repro.analysis.modelcheck.runner import (
    FIXTURE_CLASS,
    VerifyModelReport,
    catalog_targets,
    overprivileged_fixture_target,
    run_verify_model,
)
from repro.analysis.modelcheck.state import (
    PREDICATES,
    Predicate,
    PrivState,
    escape_predicates,
    initial_state,
    predicate,
)

__all__ = [
    "ANY_DESTINATION",
    "AbstractAction",
    "DEFAULT_DEPTH",
    "FIXTURE_CLASS",
    "Gate",
    "MODELCHECK_RULES",
    "ModelCheckResult",
    "PREDICATES",
    "Predicate",
    "PredicateVerdict",
    "PrivState",
    "Reachability",
    "ReplayRow",
    "SearchStats",
    "Step",
    "VerifyModelReport",
    "action_catalog",
    "catalog_targets",
    "check_target",
    "escape_actions",
    "escape_predicates",
    "initial_state",
    "modelcheck_rule_catalog",
    "overprivileged_fixture_target",
    "predicate",
    "replay_target",
    "run_verify_model",
]

"""`repro verify-model`: model-check a spec catalog and replay witnesses.

:func:`run_verify_model` is the programmatic entry point behind the CLI,
the CI smoke step, and the tier-1 regression tests: it model-checks every
target (default: the built-in Table 3 + script-class catalog under the
case-study broker policy), optionally replays every verdict dynamically,
and aggregates the outcome into a :class:`VerifyModelReport` that renders
as text, JSON, or SARIF (WIT04x findings through the shared pipeline).

:func:`overprivileged_fixture_target` is the seeded counterexample the
acceptance criteria call for: a deliberately mis-provisioned class whose
admin retains ``CAP_DEV_MEM`` behind a broker willing to share ``/dev``.
No single-route WIT00x check fires — every Table 1 gate chain is closed
against the *static* view — yet the model checker finds the three-step
chain ``broker:share-path(/dev) → open /dev/mem → read`` and the replay
harness executes it for real.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.analysis.findings import Finding, LintReport, Severity
from repro.analysis.model import LintTarget, builtin_catalog
from repro.analysis.modelcheck.engine import (
    DEFAULT_DEPTH,
    ModelCheckResult,
    check_target,
    modelcheck_rule_catalog,
)
from repro.analysis.modelcheck.replay import ReplayRow, replay_target
from repro.broker.policy import (
    BrokerPolicy,
    ClassEscalationPolicy,
    permissive_policy,
)
from repro.broker.protocol import RequestKind
from repro.containit.spec import (
    HOME_DIRECTORY,
    PerforatedContainerSpec,
)
from repro.kernel.capabilities import (
    Capability,
    container_capability_set,
)

#: name of the seeded over-privileged fixture class.
FIXTURE_CLASS = "X-DEV"


def catalog_targets(specs: Optional[Dict[str, PerforatedContainerSpec]]
                    = None,
                    broker_policy: Optional[BrokerPolicy] = None
                    ) -> List[LintTarget]:
    """Lint targets for a catalog, paired with their class policies.

    Defaults to the full built-in catalog under the case-study
    permissive broker policy — the deployment the paper evaluates.
    """
    specs = builtin_catalog() if specs is None else specs
    policy = permissive_policy() if broker_policy is None else broker_policy
    targets = []
    for name in sorted(specs, key=lambda n: (len(n), n)):
        targets.append(LintTarget(spec=specs[name],
                                  broker_policy=policy.policy_for(name)))
    return targets


def overprivileged_fixture_target() -> LintTarget:
    """A mis-provisioned class only the model checker catches.

    The spec itself walks every WIT00x gate chain clean: /dev is not
    shared, so the single-route devmem check sees the path gate closed
    and never consults the capability gate. The escape needs *two*
    privilege-state changes the linter cannot compose — a broker
    ``SHARE_PATH`` grant widening the view to ``/dev``, then the
    (wrongly retained) ``CAP_DEV_MEM`` opening what just became visible.
    """
    spec = PerforatedContainerSpec(
        name=FIXTURE_CLASS,
        description="device-tooling class, mis-provisioned (fixture)",
        fs_shares=(HOME_DIRECTORY,))
    capabilities = frozenset(container_capability_set()
                             | {Capability.CAP_DEV_MEM})
    policy = ClassEscalationPolicy(
        allowed_kinds=frozenset({RequestKind.SHARE_PATH}),
        share_path_prefixes=("/dev", "/home"))
    return LintTarget(spec=spec, broker_policy=policy,
                      capabilities=capabilities)


@dataclass
class VerifyModelReport:
    """Aggregated model-check + replay outcome over a target list."""

    results: List[ModelCheckResult]
    replay_rows: List[ReplayRow] = field(default_factory=list)
    depth: int = DEFAULT_DEPTH
    replayed: bool = False

    # -- queries ---------------------------------------------------------

    @property
    def targets(self) -> Tuple[str, ...]:
        return tuple(r.target_name for r in self.results)

    @property
    def unaudited_escapes(self) -> List[Tuple[str, str]]:
        """(target, predicate) pairs with a reachable-unaudited verdict."""
        return [(r.target_name, v.predicate.key)
                for r in self.results for v in r.unaudited_escapes]

    @property
    def disagreements(self) -> List[ReplayRow]:
        return [row for row in self.replay_rows if not row.agreed]

    @property
    def agreements(self) -> int:
        return sum(1 for row in self.replay_rows if row.agreed)

    @property
    def ok(self) -> bool:
        """The gate ``repro verify-model`` enforces with its exit code."""
        return not self.unaudited_escapes and not self.disagreements

    def result_for(self, target_name: str) -> ModelCheckResult:
        for result in self.results:
            if result.target_name == target_name:
                return result
        raise KeyError(target_name)

    # -- findings / renderings -------------------------------------------

    def findings(self) -> List[Finding]:
        findings: List[Finding] = []
        for result in self.results:
            findings.extend(result.findings())
        for row in self.disagreements:
            findings.append(Finding(
                rule_id="WIT043", severity=Severity.ERROR,
                subject=row.target,
                location=f"modelcheck.{row.predicate}",
                message=(f"static verdict '{row.verdict}' contradicted "
                         f"dynamically ({row.mode}): {row.detail}"),
                evidence=row.to_dict()))
        return findings

    def report(self) -> LintReport:
        """The WIT04x findings as a LintReport (JSON/SARIF pipeline)."""
        return LintReport.collect(self.findings(), targets=self.targets,
                                  rule_catalog=modelcheck_rule_catalog())

    def to_json(self) -> Dict[str, object]:
        return {
            "checker": "watchit-escape-model-checker",
            "depth": self.depth,
            "replayed": self.replayed,
            "ok": self.ok,
            "targets": list(self.targets),
            "unaudited_escapes": [
                {"target": t, "predicate": p}
                for t, p in self.unaudited_escapes],
            "replay": {
                "rows": [row.to_dict() for row in self.replay_rows],
                "agreements": self.agreements,
                "disagreements": len(self.disagreements),
            },
            "results": [result.to_dict() for result in self.results],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def format(self) -> str:
        lines = [f"Escape-chain model check — {len(self.results)} "
                 f"target(s), depth {self.depth}"
                 + ("" if self.replayed else " (replay disabled)")]
        for result in self.results:
            stats = result.stats
            lines.append(
                f"  {result.target_name:<6} "
                f"{stats.states_explored:>5} states "
                f"{stats.transitions:>6} transitions  "
                f"{'fixpoint' if stats.fixpoint else 'bounded':<8}")
            for verdict in result.verdicts:
                marker = {"unreachable": " ",
                          "reachable": "!",
                          "reachable-but-audited": "~"}[
                    verdict.reachability.value]
                chain = " -> ".join(s.label for s in verdict.witness)
                lines.append(
                    f"    {marker} {verdict.predicate.key:<16} "
                    f"{verdict.reachability.value:<22}"
                    + (f" via {chain}" if chain else ""))
        if self.replayed:
            lines.append(f"  replay: {self.agreements} agreement(s), "
                         f"{len(self.disagreements)} disagreement(s)")
            for row in self.disagreements:
                lines.append(f"    DISAGREE {row.target} {row.predicate} "
                             f"[{row.mode}] {row.detail}")
        verdict = "PASS" if self.ok else "FAIL"
        unaudited = len(self.unaudited_escapes)
        lines.append(f"verify-model: {verdict} "
                     f"({unaudited} reachable-unaudited escape(s), "
                     f"{len(self.disagreements)} replay disagreement(s))")
        return "\n".join(lines)


def run_verify_model(targets: Optional[List[LintTarget]] = None,
                     depth: int = DEFAULT_DEPTH,
                     replay: bool = True) -> VerifyModelReport:
    """Model-check ``targets`` (default: the built-in catalog) end to end."""
    if targets is None:
        targets = catalog_targets()
    results: List[ModelCheckResult] = []
    replay_rows: List[ReplayRow] = []
    with obs.tracer().span("modelcheck:verify", depth=str(depth),
                           targets=str(len(targets))):
        for target in targets:
            result = check_target(target, depth=depth)
            results.append(result)
            if replay:
                replay_rows.extend(replay_target(target, result))
    return VerifyModelReport(results=results, replay_rows=replay_rows,
                             depth=depth, replayed=replay)


__all__ = [
    "FIXTURE_CLASS",
    "VerifyModelReport",
    "catalog_targets",
    "overprivileged_fixture_target",
    "run_verify_model",
]

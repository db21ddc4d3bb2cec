"""`repro mine`: trace, synthesize, prove, and diff per-class policies.

The pipeline per ticket class:

1. **Trace** — replay the class's benign sessions (Table-4 tickets for
   T-classes, Figure-8 scripts for S-classes, a synthetic benign workload
   for the X-DEV fixture) under the *catalog* spec with a
   :class:`~repro.analysis.mining.recorder.TraceRecorder` attached.
2. **Synthesize** — generalize the traces into a minimal spec
   (:func:`~repro.analysis.mining.synthesize.synthesize_spec`).
3. **Prove** — run the mined spec through the escape-chain model checker
   (no unaudited chain may appear) and re-replay every session under the
   mined spec (zero denials — no under-privilege).
4. **Diff** — compare catalog against mined + observed usage, emitting
   WIT05x findings through the shared SARIF pipeline.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.findings import Finding, LintReport
from repro.analysis.mining.recorder import TraceRecorder
from repro.analysis.mining.rules import diff_class, mining_rule_catalog
from repro.analysis.mining.synthesize import (
    GeneralizationPolicy,
    ObservedUsage,
    observe,
    synthesize_spec,
)
from repro.analysis.model import LintTarget
from repro.analysis.modelcheck.engine import DEFAULT_DEPTH, check_target
from repro.analysis.modelcheck.replay import CrossCheckReport, run_crosscheck
from repro.analysis.modelcheck.runner import (
    FIXTURE_CLASS,
    catalog_targets,
    overprivileged_fixture_target,
)
from repro.containit.spec import PerforatedContainerSpec
from repro.experiments.rig import (
    CaseStudyRig,
    RigSession,
    build_case_study_rig,
    replay_op,
)
from repro.kernel.capabilities import Capability, Credentials
from repro.workload.corpus import generate_evaluation_tickets
from repro.workload.scripts import (
    ITScript,
    assign_script_container,
    chef_puppet_scripts,
    cluster_scripts,
)

#: Benign sessions for the X-DEV fixture class: plain home-directory
#: device-tooling work. Deliberately exercises neither ``/dev`` nor
#: ``CAP_DEV_MEM`` — the fixture's extra privileges are pure, unused
#: attack surface, which is exactly what the miner must flag.
XDEV_BENIGN_SESSIONS: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    ("alice", (("read", "/home/{user}/notes.txt"),
               ("write", "/home/{user}/devtool.log"))),
    ("bob", (("read", "/home/{user}/notes.txt"),
             ("write", "/home/{user}/devtool.log"))),
    ("carol", (("write", "/home/{user}/devtool.log"),)),
)


@dataclass(frozen=True)
class PlannedSession:
    """One benign admin session to trace (and later proof-replay)."""

    ticket_class: str
    user: str
    label: str
    ops: Tuple[Dict[str, str], ...] = ()
    script_name: str = ""


def _script_registry() -> Dict[str, ITScript]:
    return {s.name: s for s in chef_puppet_scripts() + cluster_scripts()}


def plan_sessions(classes: Sequence[str], n_tickets: int, seed: int,
                  max_sessions: int) -> Dict[str, List[PlannedSession]]:
    """Deterministic benign-session plans, keyed by ticket class."""
    plans: Dict[str, List[PlannedSession]] = {name: [] for name in classes}

    def want(name: str) -> bool:
        return name in plans and len(plans[name]) < max_sessions

    if any(name.startswith("T-") for name in classes):
        for ticket in generate_evaluation_tickets(n_tickets, seed=seed):
            name = ticket.true_class
            if name is None or not want(name):
                continue
            plans[name].append(PlannedSession(
                ticket_class=name, user=ticket.reporter,
                label=f"{name}#{len(plans[name])}",
                ops=tuple(dict(op) for op in ticket.required_ops)))
    if any(name.startswith("S-") for name in classes):
        for script in chef_puppet_scripts() + cluster_scripts():
            name = assign_script_container(script)
            if not want(name):
                continue
            plans[name].append(PlannedSession(
                ticket_class=name, user="alice",
                label=f"{name}#{len(plans[name])}:{script.name}",
                script_name=script.name))
    if FIXTURE_CLASS in plans:
        for user, ops in XDEV_BENIGN_SESSIONS:
            if not want(FIXTURE_CLASS):
                break
            plans[FIXTURE_CLASS].append(PlannedSession(
                ticket_class=FIXTURE_CLASS, user=user,
                label=f"{FIXTURE_CLASS}#{len(plans[FIXTURE_CLASS])}",
                ops=tuple({"op": op, "arg": arg.format(user=user)}
                          for op, arg in ops)))
    return plans


def _run_session(rig: CaseStudyRig, spec: PerforatedContainerSpec,
                 plan: PlannedSession,
                 recorder: Optional[TraceRecorder] = None,
                 capabilities: Optional[frozenset] = None) -> List[str]:
    """Deploy, run one session, terminate. Returns denial/error strings."""
    errors: List[str] = []
    credentials = (Credentials(uid=0, gid=0, caps=capabilities)
                   if capabilities is not None else None)
    with rig.session(spec, plan.user, "it-admin",
                     credentials=credentials) as session:
        try:
            if recorder is not None:
                with recorder.session(plan.ticket_class, plan.user,
                                      session_id=plan.label):
                    _execute(session, plan)
            else:
                _execute(session, plan)
        except Exception as exc:  # noqa: BLE001 — script bodies may raise anything
            errors.append(f"{plan.label}: {type(exc).__name__}: {exc}")
    return errors


def _execute(session: RigSession, plan: PlannedSession) -> None:
    if plan.script_name:
        _script_registry()[plan.script_name].run(session.shell)
    else:
        for op in plan.ops:
            replay_op(session, op)


# ----------------------------------------------------------------------
# per-class outcome + aggregate report
# ----------------------------------------------------------------------

@dataclass
class ClassMiningOutcome:
    """Everything the miner produced for one ticket class."""

    ticket_class: str
    sessions: int
    usage: Optional[ObservedUsage] = None
    mined: Optional[PerforatedContainerSpec] = None
    trace_errors: Tuple[str, ...] = ()
    checker_unaudited: Tuple[str, ...] = ()
    replay_denials: Tuple[str, ...] = ()
    skipped: str = ""

    @property
    def proven(self) -> bool:
        """Mined, checker-clean, and replayed with zero denials."""
        return (self.mined is not None and not self.trace_errors
                and not self.checker_unaudited and not self.replay_denials)

    def privilege_delta(self, catalog: PerforatedContainerSpec
                        ) -> Dict[str, int]:
        """How much narrower the mined spec is, per dimension."""
        mined = self.mined
        if mined is None:
            return {}
        return {
            "fs_shares_removed":
                max(len(catalog.fs_shares) - len(mined.fs_shares), 0),
            "destinations_removed":
                len(set(catalog.network_allowed)
                    - set(mined.network_allowed)),
            "netns_hole_closed":
                int(catalog.share_network_ns and not mined.share_network_ns),
            "process_management_dropped":
                int(catalog.process_management
                    and not mined.process_management),
        }

    def to_dict(self, catalog: Optional[PerforatedContainerSpec] = None
                ) -> Dict[str, object]:
        return {
            "ticket_class": self.ticket_class,
            "sessions": self.sessions,
            "skipped": self.skipped,
            "proven": self.proven,
            "usage": self.usage.to_dict() if self.usage else None,
            "mined": self.mined.to_dict() if self.mined else None,
            "trace_errors": list(self.trace_errors),
            "checker_unaudited": list(self.checker_unaudited),
            "replay_denials": list(self.replay_denials),
            "privilege_delta":
                self.privilege_delta(catalog) if catalog else {},
        }


@dataclass
class MiningReport:
    """Aggregated policy-mining outcome over a class list."""

    outcomes: List[ClassMiningOutcome]
    catalog: Dict[str, PerforatedContainerSpec]
    report: LintReport
    params: Dict[str, object] = field(default_factory=dict)
    crosscheck: Optional[CrossCheckReport] = None

    @property
    def ok(self) -> bool:
        """Every requested class mined and proven (findings gate exit
        codes separately, via ``--fail-on``)."""
        proven = all(o.proven and not o.skipped for o in self.outcomes)
        consistent = self.crosscheck is None or self.crosscheck.consistent
        return bool(self.outcomes) and proven and consistent

    def outcome_for(self, ticket_class: str) -> ClassMiningOutcome:
        for outcome in self.outcomes:
            if outcome.ticket_class == ticket_class:
                return outcome
        raise KeyError(ticket_class)

    def mined_specs(self) -> Dict[str, PerforatedContainerSpec]:
        return {o.ticket_class: o.mined for o in self.outcomes
                if o.mined is not None}

    def to_json(self) -> Dict[str, object]:
        return {
            "miner": "watchit-policy-miner",
            "ok": self.ok,
            "params": dict(self.params),
            "classes": [
                o.to_dict(self.catalog.get(o.ticket_class))
                for o in self.outcomes],
            "findings": self.report.to_json(),
            "crosscheck": ({
                "consistent": self.crosscheck.consistent,
                "rows": [row.to_dict() for row in self.crosscheck.rows],
            } if self.crosscheck else None),
            "digest": self.digest(),
        }

    def digest(self) -> str:
        """Stable hash over the mined result — equal digests, equal runs."""
        payload = {
            "params": dict(self.params),
            "classes": [
                o.to_dict(self.catalog.get(o.ticket_class))
                for o in self.outcomes],
            "findings": [f.to_dict() for f in self.report.findings],
        }
        return hashlib.sha256(json.dumps(
            payload, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def format(self) -> str:
        lines = [f"Policy mining — {len(self.outcomes)} class(es), "
                 f"seed {self.params.get('seed', '?')}"]
        for outcome in self.outcomes:
            if outcome.skipped:
                lines.append(f"  {outcome.ticket_class:<6} SKIPPED "
                             f"({outcome.skipped})")
                continue
            catalog = self.catalog.get(outcome.ticket_class)
            mined = outcome.mined
            delta = (outcome.privilege_delta(catalog)
                     if catalog is not None else {})
            narrowed = ", ".join(f"{k.replace('_', ' ')}: {v}"
                                 for k, v in delta.items() if v)
            shares = list(mined.fs_shares) if mined else []
            lines.append(
                f"  {outcome.ticket_class:<6} {outcome.sessions} session(s)"
                f"  shares={shares}"
                f"  net={list(mined.network_allowed) if mined else []}"
                f"{' +netns' if mined and mined.share_network_ns else ''}"
                f"{' +procmgmt' if mined and mined.process_management else ''}"
                + (f"  [narrowed — {narrowed}]" if narrowed else ""))
            for denial in outcome.replay_denials:
                lines.append(f"         DENIED {denial}")
            for predicate in outcome.checker_unaudited:
                lines.append(f"         UNAUDITED {predicate}")
        if self.report.findings:
            lines.append("")
            lines.append(self.report.format())
        if self.crosscheck is not None:
            lines.append("")
            lines.append(self.crosscheck.format())
        verdict = "PASS" if self.ok else "FAIL"
        counts = self.report.counts()
        lines.append(
            f"mine: {verdict} ({len(self.mined_specs())} spec(s) mined, "
            f"{counts.get('error', 0)} error(s), "
            f"{counts.get('warning', 0)} warning(s))")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the entry point
# ----------------------------------------------------------------------

def mining_targets(classes: Optional[Sequence[str]] = None
                   ) -> Dict[str, LintTarget]:
    """Catalog lint targets by class name; ``X-DEV`` maps to the fixture.

    Defaults to the 17-class built-in catalog (the fixture is opt-in,
    mirroring ``repro verify-model``).
    """
    targets = {t.name: t for t in catalog_targets()}
    if classes is None:
        return targets
    selected: Dict[str, LintTarget] = {}
    for name in classes:
        if name == FIXTURE_CLASS:
            selected[name] = overprivileged_fixture_target()
        elif name in targets:
            selected[name] = targets[name]
        else:
            raise ValueError(
                f"unknown ticket class {name!r}; choose from "
                f"{', '.join(targets)} or {FIXTURE_CLASS} (the seeded "
                f"over-privileged fixture)")
    return selected


def run_mining(classes: Optional[Sequence[str]] = None,
               n_tickets: int = 398, seed: int = 42,
               policy: Optional[GeneralizationPolicy] = None,
               max_sessions: int = 4, depth: int = DEFAULT_DEPTH,
               crosscheck: bool = False) -> MiningReport:
    """Mine, prove, and diff the policy of every requested class."""
    policy = policy or GeneralizationPolicy()
    targets = mining_targets(classes)
    order = sorted(targets, key=lambda n: (len(n), n))
    plans = plan_sessions(order, n_tickets=n_tickets, seed=seed,
                          max_sessions=max_sessions)
    outcomes: List[ClassMiningOutcome] = []
    findings: List[Finding] = []
    with obs.tracer().span("mining:run", classes=str(len(order))):
        for name in order:
            target = targets[name]
            class_plans = plans.get(name, [])
            outcome = _mine_class(target, class_plans, policy, depth)
            outcomes.append(outcome)
            if outcome.usage is not None:
                findings.extend(diff_class(
                    target, outcome.mined, outcome.usage,
                    checker_unaudited=outcome.checker_unaudited,
                    replay_denials=outcome.replay_denials))
    report = LintReport.collect(findings, targets=order,
                                rule_catalog=mining_rule_catalog())
    params = {
        "classes": order, "n_tickets": n_tickets, "seed": seed,
        "share_depth": policy.share_depth,
        "min_sessions": policy.min_sessions,
        "include_broker_grants": policy.include_broker_grants,
        "max_sessions": max_sessions, "depth": depth,
    }
    mining_report = MiningReport(
        outcomes=outcomes,
        catalog={name: targets[name].spec for name in order},
        report=report, params=params)
    if crosscheck:
        mined = mining_report.mined_specs()
        if mined:
            mining_report.crosscheck = run_crosscheck(mined)
    return mining_report


def _mine_class(target: LintTarget, class_plans: Sequence[PlannedSession],
                policy: GeneralizationPolicy,
                depth: int) -> ClassMiningOutcome:
    name = target.name
    if len(class_plans) < policy.min_sessions:
        return ClassMiningOutcome(
            ticket_class=name, sessions=len(class_plans),
            skipped=f"only {len(class_plans)} session(s) available, "
                    f"min_sessions={policy.min_sessions}")
    # 1. trace under the catalog spec
    recorder = TraceRecorder()
    rig = build_case_study_rig()
    trace_errors: List[str] = []
    for plan in class_plans:
        trace_errors.extend(_run_session(
            rig, target.spec, plan, recorder=recorder,
            capabilities=target.capabilities))
    usage = observe(name, recorder.traces_for(name), rig.address_book)
    # 2. synthesize
    mined = synthesize_spec(usage, target.spec, policy)
    # 3a. prove: model-check the mined spec with the observed capability
    #     set under the class's own broker policy
    observed_caps = frozenset(
        Capability(value) for value in usage.capabilities)
    mined_target = LintTarget(spec=mined, broker_policy=target.broker_policy,
                              capabilities=observed_caps)
    result = check_target(mined_target, depth=depth)
    checker_unaudited = tuple(sorted(
        v.predicate.key for v in result.unaudited_escapes))
    # 3b. prove: replay every session under the mined spec (default
    #     contained-root credentials — mined capabilities are advisory)
    proof_rig = build_case_study_rig()
    replay_denials: List[str] = []
    for plan in class_plans:
        replay_denials.extend(_run_session(proof_rig, mined, plan))
    obs.registry().counter("mining_specs_mined_total",
                           ticket_class=name).inc()
    return ClassMiningOutcome(
        ticket_class=name, sessions=len(class_plans), usage=usage,
        mined=mined, trace_errors=tuple(trace_errors),
        checker_unaudited=checker_unaudited,
        replay_denials=tuple(replay_denials))

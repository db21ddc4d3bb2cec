"""Experiment: Table 4 — the 398-ticket evaluation-period replay.

For every evaluation ticket we:

1. classify its free text (LDA pipeline + the paper's supervisor review);
2. deploy the perforated container of its (ground-truth) class on the
   case-study host — the paper audited "whether we can apply the
   operations performed for each ticket inside its corresponding
   perforated container";
3. replay the ticket's ground-truth required operations through the
   contained admin shell; broker-requiring ops go through the permission
   broker and are tallied per escalation category.

Output: the paper's columns — per-class ticket share, classification
precision, % satisfied by the container alone, and % that used the broker
per category — plus the derived isolation statistics of Section 7.1.3
(full-filesystem view denied, process view compartmentalized, network view
isolated, WWW exposure, everything monitored).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.experiments.rig import CaseStudyRig, build_case_study_rig, replay_op
from repro.framework.classifier import (
    FALLBACK_CLASS,
    ClassificationReport,
    KeywordClassifier,
    LDAClassifier,
    evaluate_classifier,
)
from repro.framework.images import TABLE3_SPECS
from repro.framework.tickets import Ticket
from repro.workload.corpus import CLASS_IDS, generate_corpus, generate_evaluation_tickets

#: the paper's Table 4 reference values (fractions)
PAPER_TABLE4 = {
    "total": {"precision": 0.95, "satisfied": 0.92,
              "pb_process": 0.01, "pb_filesystem": 0.00, "pb_network": 0.07},
}

#: Section 7.1.3 prose statistics
PAPER_ISOLATION_STATS = {
    "full_fs_view_denied": 0.62,
    "process_view_compartmentalized": 0.36,
    "network_view_isolated": 0.98,
    "www_access": 0.32,
}

#: escalation op -> Table 4 column
_ESCALATION_COLUMN = {
    "pb-proc": "process",
    "pb-fs": "filesystem",
    "pb-net": "network",
    "pb-install": "network",  # the Matlab-toolbox example: the container is
    # isolated from the software repository, so the install is a network-
    # view escalation satisfied by the broker
}


@dataclass
class ClassRow:
    """One Table 4 row."""

    class_id: str
    tickets: int = 0
    classified_correctly: int = 0
    satisfied: int = 0
    pb_process: int = 0
    pb_filesystem: int = 0
    pb_network: int = 0
    replay_errors: List[str] = field(default_factory=list)

    def fraction(self, attr: str) -> float:
        return getattr(self, attr) / self.tickets if self.tickets else 0.0


@dataclass
class Table4Result:
    rows: Dict[str, ClassRow]
    classification: ClassificationReport
    isolation_stats: Dict[str, float]
    monitored_fs_ops: int
    monitored_packets: int
    total_tickets: int

    # -- aggregates -----------------------------------------------------

    @property
    def satisfied_fraction(self) -> float:
        done = sum(r.satisfied for r in self.rows.values())
        return done / self.total_tickets

    @property
    def broker_fraction(self) -> Dict[str, float]:
        return {
            "process": sum(r.pb_process for r in self.rows.values()) / self.total_tickets,
            "filesystem": sum(r.pb_filesystem for r in self.rows.values()) / self.total_tickets,
            "network": sum(r.pb_network for r in self.rows.values()) / self.total_tickets,
        }

    @property
    def replay_errors(self) -> List[str]:
        out: List[str] = []
        for row in self.rows.values():
            out.extend(row.replay_errors)
        return out

    def format(self) -> str:
        lines = [
            "Table 4 — evaluation-period replay",
            f"{'ID':<6}{'% tickets':>10}{'precision':>11}{'satisfied':>11}"
            f"{'PB proc':>9}{'PB fs':>7}{'PB net':>8}",
        ]
        for class_id in CLASS_IDS:
            row = self.rows.get(class_id)
            if row is None or row.tickets == 0:
                continue
            lines.append(
                f"{class_id:<6}"
                f"{row.tickets / self.total_tickets:>9.0%} "
                f"{self.classification.class_accuracy(class_id):>10.0%}"
                f"{row.fraction('satisfied'):>11.0%}"
                f"{row.fraction('pb_process'):>9.0%}"
                f"{row.fraction('pb_filesystem'):>7.0%}"
                f"{row.fraction('pb_network'):>8.0%}")
        broker = self.broker_fraction
        lines.append(
            f"{'Total':<6}{1:>9.0%} {self.classification.accuracy:>10.0%}"
            f"{self.satisfied_fraction:>11.0%}{broker['process']:>9.0%}"
            f"{broker['filesystem']:>7.0%}{broker['network']:>8.0%}")
        lines.append("")
        lines.append("Isolation statistics (Section 7.1.3):")
        for key, value in self.isolation_stats.items():
            paper = PAPER_ISOLATION_STATS.get(key)
            suffix = f" (paper: {paper:.0%})" if paper is not None else ""
            lines.append(f"  {key:<34} {value:>6.1%}{suffix}")
        lines.append(f"  monitored fs ops: {self.monitored_fs_ops}, "
                     f"monitored packets: {self.monitored_packets}")
        return "\n".join(lines)


def _supervisor_review(catch_rate: float = 1.0):
    """The paper's review step: classification is 'reviewed by the user or
    a supervisor'. ``catch_rate`` models how often the reviewer corrects a
    misfiled ticket before deployment (1.0 = perfect reviewer)."""
    import random
    rng = random.Random(99)

    def review(ticket: Ticket, predicted: str) -> str:
        if predicted != ticket.true_class and rng.random() < catch_rate:
            return ticket.true_class
        return predicted
    return review


def _replay_ticket(rig: CaseStudyRig, ticket: Ticket,
                   row: ClassRow) -> Tuple[int, int]:
    """Deploy the class container and replay the ticket's operations.

    Returns the (filesystem ops, packets) the container's monitors saw.
    """
    spec = TABLE3_SPECS.get(ticket.true_class or FALLBACK_CLASS,
                            TABLE3_SPECS[FALLBACK_CLASS])
    with rig.session(spec, ticket.reporter,
                     ticket.assignee or "it-admin") as session:
        used_broker: Set[str] = set()
        try:
            for op in ticket.required_ops:
                replay_op(session, op)
                if op["op"] in _ESCALATION_COLUMN:
                    used_broker.add(_ESCALATION_COLUMN[op["op"]])
        except ReproError as exc:
            row.replay_errors.append(f"ticket {ticket.ticket_id} "
                                     f"({ticket.true_class}) op failed: {exc}")
        else:
            if not used_broker:
                row.satisfied += 1
        row.pb_process += "process" in used_broker
        row.pb_filesystem += "filesystem" in used_broker
        row.pb_network += "network" in used_broker
        row.tickets += 1
        container = session.container
        return (len(container.fs_audit),
                container.monitor.packets_seen if container.monitor else 0)


def _isolation_stats(tickets: Sequence[Ticket]) -> Dict[str, float]:
    """Section 7.1.3 statistics derived from class confinement x mix."""
    total = len(tickets)
    full_fs = sum(1 for t in tickets
                  if TABLE3_SPECS[t.true_class].shares_full_root)
    shared_pid = sum(1 for t in tickets
                     if TABLE3_SPECS[t.true_class].process_management)
    shared_net_ns = sum(1 for t in tickets
                        if TABLE3_SPECS[t.true_class].share_network_ns)
    www = sum(1 for t in tickets
              if "whitelisted-websites" in TABLE3_SPECS[t.true_class].network_allowed
              or TABLE3_SPECS[t.true_class].share_network_ns)
    return {
        "full_fs_view_denied": 1 - full_fs / total,
        "process_view_compartmentalized": 1 - shared_pid / total,
        "network_view_isolated": 1 - shared_net_ns / total,
        "www_access": www / total,
    }


def run_table4(n_tickets: int = 398, seed: int = 42,
               classifier: str = "lda", train_size: int = 1200,
               lda_iters: int = 80, review_catch_rate: float = 0.9
               ) -> Table4Result:
    """The full evaluation replay.

    ``classifier`` is ``"lda"`` (the paper's pipeline; slower) or
    ``"keyword"`` (fast). ``review_catch_rate`` models the supervisor
    review step of Section 5.1/7.1.3.
    """
    tickets = generate_evaluation_tickets(n_tickets, seed=seed)
    if classifier == "lda":
        model = LDAClassifier(n_topics=10, n_iter=lda_iters, seed=seed)
        model.train(generate_corpus(train_size, seed=seed + 1))
    else:
        model = KeywordClassifier()
    report = evaluate_classifier(model, tickets,
                                 review=_supervisor_review(review_catch_rate))

    rig = build_case_study_rig()
    rows: Dict[str, ClassRow] = {c: ClassRow(class_id=c) for c in CLASS_IDS}
    fs_ops = packets = 0
    for ticket in tickets:
        ticket_fs_ops, ticket_packets = _replay_ticket(
            rig, ticket, rows[ticket.true_class])
        fs_ops += ticket_fs_ops
        packets += ticket_packets
    return Table4Result(rows=rows, classification=report,
                        isolation_stats=_isolation_stats(tickets),
                        monitored_fs_ops=fs_ops, monitored_packets=packets,
                        total_tickets=len(tickets))

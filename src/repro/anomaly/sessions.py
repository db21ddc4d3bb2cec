"""Session-corpus generation for anomaly-detection experiments.

Produces labelled session logs by *running real sessions* on the
case-study rig: benign sessions replay ordinary ticket operations inside
their class containers; malicious sessions additionally probe classified
files, WatchIT components, and exfiltration paths — leaving exactly the
audit trail a rogue admin would.
"""

from __future__ import annotations

import random
from typing import List

from repro.anomaly.features import SessionLog
from repro.errors import ReproError
from repro.experiments.rig import build_case_study_rig, replay_op
from repro.framework.images import TABLE3_SPECS
from repro.workload.corpus import generate_evaluation_tickets


def _malicious_extras(shell, client, rng: random.Random) -> None:
    """The rogue-admin behaviours layered on top of the cover ticket."""
    probes = [
        lambda: shell.read_file(f"/home/{rng.choice(['alice', 'bob'])}/salary.docx"),
        lambda: shell.read_file("/opt/watchit/itfs"),
        lambda: shell.write_file("/opt/watchit/policy-manager", b"patch"),
        lambda: shell.read_file("/etc/shadow"),
        lambda: client.share_path("/opt/watchit"),
        lambda: client.pb("rm -rf /var/log"),
    ]
    for probe in rng.sample(probes, k=rng.randint(3, 5)):
        try:
            probe()
        except ReproError:
            pass


def generate_session_corpus(n_benign: int = 40, n_malicious: int = 8,
                            seed: int = 17) -> List[SessionLog]:
    """Run labelled sessions on a fresh rig and collect their logs."""
    rng = random.Random(seed)
    rig = build_case_study_rig()
    tickets = generate_evaluation_tickets(n_benign + n_malicious, seed=seed)
    logs: List[SessionLog] = []
    for i, ticket in enumerate(tickets):
        malicious = i >= n_benign
        spec = TABLE3_SPECS.get(ticket.true_class, TABLE3_SPECS["T-11"])
        with rig.session(spec, ticket.reporter, "it-admin") as session:
            for op in ticket.required_ops:
                try:
                    replay_op(session, op)
                except ReproError:
                    pass  # denials are exactly the audit signal we record
            if malicious:
                _malicious_extras(session.shell, session.client, rng)
            logs.append(SessionLog.from_container(
                session_id=f"session-{i:03d}-{ticket.true_class}",
                container=session.container, broker=session.broker,
                label="malicious" if malicious else "benign"))
    return logs

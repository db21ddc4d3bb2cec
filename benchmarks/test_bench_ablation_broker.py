"""Ablation: the broker feedback loop (paper Section 5.4).

"If certain permissions are repeatedly requested, they can be added to the
ticket class's perforated container, thus further reducing the amount of
gathered data." We measure the broker-log volume before and after folding
the top repeated escalation back into the class image.
"""

import dataclasses

from repro.experiments.rig import build_case_study_rig
from repro.framework.images import TABLE3_SPECS


def _serve_tickets(rig, spec, n_tickets):
    """Handle n T-2-style tickets that all need shared-storage access."""
    log_records = 0
    for _ in range(n_tickets):
        with rig.session(spec, "alice", "it-bob") as session:
            shell = session.shell
            shell.read_file("/etc/passwd")
            if not shell.net_reachable("10.0.1.20", 2049):
                session.client.grant_network("shared-storage")
            conn = shell.connect("10.0.1.20", 2049)
            conn.send(b"lookup user")
            log_records += len(session.broker.audit)
    return log_records


def run_feedback_loop(n_tickets=15):
    rig = build_case_study_rig()
    before_spec = TABLE3_SPECS["T-2"]  # no storage access: broker every time
    before = _serve_tickets(rig, before_spec, n_tickets)
    # fold the repeatedly-granted permission into the class image
    after_spec = dataclasses.replace(before_spec,
                                     network_allowed=("shared-storage",))
    after = _serve_tickets(rig, after_spec, n_tickets)
    return before, after


def test_bench_ablation_broker_feedback(once):
    before, after = once(run_feedback_loop)
    print()
    print("Ablation — broker feedback loop (Section 5.4)")
    print(f"  broker-log records before image update: {before}")
    print(f"  broker-log records after image update:  {after}")
    assert after < before
    assert after == 0  # the escalation disappears entirely

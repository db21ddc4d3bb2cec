"""Extension benchmark: audit-log volume — the §5.4 succinctness claim.

"Our permission broker logs only IT activities that diverge from the
predefined isolation ... Hence, the permission broker's log is
sufficiently succinct to be inspected and analyzed for anomaly detection,
where one of the major challenges is handling enormous amounts of data."

We serve a batch of evaluation tickets and compare: full ITFS+network
audit volume vs. the broker's escalation-only log.
"""

from repro.errors import ReproError
from repro.experiments.rig import build_case_study_rig, replay_op
from repro.framework.images import TABLE3_SPECS
from repro.workload import generate_evaluation_tickets


def run_volume_comparison(n_tickets=80, seed=61):
    rig = build_case_study_rig()
    tickets = generate_evaluation_tickets(n_tickets, seed=seed)
    full_records = 0
    broker_records = 0
    for ticket in tickets:
        spec = TABLE3_SPECS.get(ticket.true_class, TABLE3_SPECS["T-11"])
        with rig.session(spec, ticket.reporter, "it-admin") as session:
            for op in ticket.required_ops:
                try:
                    replay_op(session, op)
                except ReproError:
                    pass
            container = session.container
            full_records += len(container.fs_audit) + len(container.net_audit)
            broker_records += len(session.broker.audit)
    return full_records, broker_records, n_tickets


def test_bench_log_volume(once):
    full, broker, n = once(run_volume_comparison)
    print()
    print("Extension — audit-log volume per served ticket (§5.4 claim)")
    print(f"  full ITFS+network audit: {full:>6} records "
          f"({full / n:.1f}/ticket)")
    print(f"  broker escalation log:   {broker:>6} records "
          f"({broker / n:.2f}/ticket)")
    print(f"  reduction factor:        {full / max(broker, 1):>6.1f}x")
    # the broker log must be at least an order of magnitude smaller
    assert broker * 10 <= full

"""Static/dynamic consistency: the escape gates must agree with Table 1.

The acceptance property: every escape whose gate walk (the same walk
WIT001–005 read) reaches past the isolation layers is exactly the set
the dynamic attacks find not blocked by namespace/filesystem isolation —
for every Table 3 class.
"""

import pytest

from repro.analysis import LintTarget, crosscheck_spec, run_crosscheck
from repro.analysis.modelcheck import initial_state
from repro.analysis.modelcheck.actions import ShmRendezvousAction
from repro.containit import PerforatedContainerSpec
from repro.framework.images import TABLE3_SPECS


@pytest.fixture(scope="module")
def report():
    return run_crosscheck()


class TestCrossCheck:
    def test_full_table3_catalog_is_consistent(self, report):
        assert report.consistent, report.format()

    def test_covers_every_class_and_escape(self, report):
        classes = {row.ticket_class for row in report.rows}
        assert classes == set(TABLE3_SPECS)
        for name in TABLE3_SPECS:
            assert {r.escape_key for r in report.rows_for(name)} == \
                {"chroot", "ptrace", "mknod", "devmem", "ipc"}

    def test_static_reachable_set_matches_dynamic(self, report):
        # the exact acceptance phrasing: statically-reachable == not
        # blocked by isolation dynamically, as two comparable sets
        static = {(r.ticket_class, r.escape_key) for r in report.rows
                  if r.static_reachable_past_isolation}
        dynamic = {(r.ticket_class, r.escape_key) for r in report.rows
                   if not r.dynamic_blocked_by_isolation}
        assert static == dynamic

    def test_t6_reaches_capability_gates_everywhere_but_ipc(self, report):
        verdicts = {r.escape_key: r.static_reachable_past_isolation
                    for r in report.rows_for("T-6")}
        assert verdicts == {"chroot": True, "ptrace": True, "mknod": True,
                            "devmem": True, "ipc": False}

    def test_isolated_class_only_capability_routes_reachable(self, report):
        verdicts = {r.escape_key: r.static_reachable_past_isolation
                    for r in report.rows_for("T-11")}
        assert verdicts == {"chroot": True, "ptrace": False, "mknod": True,
                            "devmem": False, "ipc": False}

    def test_isolation_rows_name_the_blocking_gate(self, report):
        # a route blocked by isolation is stopped at runtime by exactly
        # the gate the static walk names first, not just by some layer
        for row in report.rows:
            if not row.static_reachable_past_isolation:
                assert row.dynamic_defense == row.static_residual_defense, \
                    row.to_dict()

    def test_every_attack_still_blocked_dynamically(self, report):
        # reaching a capability gate is a reduced-depth warning, not a
        # breach: with the shipped capability set everything stays blocked
        assert all(row.dynamic_blocked for row in report.rows)


class TestShmProbe:
    def test_shared_ipc_spec_is_dynamically_open_and_statically_flagged(self):
        spec = PerforatedContainerSpec(name="X-1", share_ipc=True)
        rows = {r.escape_key: r for r in crosscheck_spec(spec)}
        assert not rows["ipc"].dynamic_blocked
        assert rows["ipc"].consistent
        gates = ShmRendezvousAction().gates(
            initial_state(LintTarget(spec=spec)))
        assert not any(g.blocked for g in gates)

"""Property tests: one privilege model answers the one-step and the
multi-step escape question consistently.

Over random specs (perforation flags, fs shares drawn from the catalog
plus ``/dev`` and ``/``) and random capability sets:

* each escape action's guard is exactly "no gate blocked" (plus the
  ``devmem_open`` facet for ``open-devmem``), and the gates restate the
  kernel checks of :mod:`repro.kernel.syscalls`;
* every WIT001–005 error (no gate blocks the route) is a reachable
  escape predicate for the bounded model checker.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import LintTarget, PerforationLinter, Severity
from repro.analysis.checkers import default_checkers
from repro.analysis.escape import EscapeChecker
from repro.analysis.linter import builtin_catalog
from repro.analysis.modelcheck import (
    Reachability,
    check_target,
    escape_actions,
    initial_state,
)
from repro.containit import PerforatedContainerSpec
from repro.kernel.capabilities import Capability
from repro.kernel.namespaces import NamespaceKind

SHARES = sorted({share for spec in builtin_catalog().values()
                 for share in spec.fs_shares} | {"/dev", "/"})

#: WIT00x rule -> the escape predicate its route achieves.
RULE_PREDICATE = {
    "WIT001": "host-fs-raw",     # chroot
    "WIT002": "host-exec",       # ptrace
    "WIT003": "host-fs-raw",     # mknod
    "WIT004": "kernel-memory",   # devmem
    "WIT005": "host-ipc",        # ipc
}

specs = st.builds(
    lambda shares, pm, ipc, net, uts: PerforatedContainerSpec(
        name="P-1", fs_shares=tuple(shares), process_management=pm,
        share_ipc=ipc, share_network_ns=net, share_uts=uts),
    st.lists(st.sampled_from(SHARES), max_size=3, unique=True),
    st.booleans(), st.booleans(), st.booleans(), st.booleans())
capabilities = st.frozensets(st.sampled_from(list(Capability)))
targets = st.builds(lambda spec, caps: LintTarget(spec=spec,
                                                  capabilities=caps),
                    specs, capabilities)


def kernel_guard(route, state):
    """The syscall layer's checks for each route, stated independently."""
    return {
        "chroot": state.has_cap(Capability.CAP_SYS_CHROOT),
        "ptrace": (state.shares(NamespaceKind.PID)
                   and state.has_cap(Capability.CAP_SYS_PTRACE)),
        "mknod": state.has_cap(Capability.CAP_MKNOD),
        "devmem": (state.path_visible("/dev/mem")
                   and state.has_cap(Capability.CAP_DEV_MEM)),
        "ipc": state.shares(NamespaceKind.IPC),
    }[route]


@settings(max_examples=150, deadline=None)
@given(targets, st.booleans())
def test_escape_guard_is_no_gate_blocked(target, devmem_open):
    state = initial_state(target).widen(devmem_open=devmem_open)
    for action in escape_actions():
        open_gates = not any(g.blocked for g in action.gates(state))
        expected = open_gates
        if action.route == "devmem":
            expected = open_gates and not state.devmem_open
        assert action.enabled(state) == expected, action.route
        assert open_gates == kernel_guard(action.route, state), action.route


@settings(max_examples=60, deadline=None)
@given(targets)
def test_every_escape_error_is_reachable_for_the_model_checker(target):
    linter = PerforationLinter(
        checkers=[c for c in default_checkers()
                  if isinstance(c, EscapeChecker)])
    errors = [f for f in linter.lint(target).findings
              if f.severity is Severity.ERROR]
    if not errors:
        return
    result = check_target(target)
    for finding in errors:
        verdict = result.verdict(RULE_PREDICATE[finding.rule_id])
        assert verdict.reachability is Reachability.REACHABLE, (
            finding.rule_id, verdict.reachability)

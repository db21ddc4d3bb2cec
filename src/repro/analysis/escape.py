"""Escape-path reachability checkers (rules WIT001-WIT005).

Each rule corresponds to one escape route of paper Table 1 (plus the IPC
shm surface) and reads the gate walk of the model checker's escape action
(:func:`~repro.analysis.modelcheck.actions.escape_actions`) from the
target's initial state. The severity scale encodes how much of the
defense-in-depth stack survives statically:

* no finding — an isolation layer (namespace or path) blocks the route;
* ``warning`` — only capability gates block (the namespace perforations
  removed the isolation layers, containment now rests solely on the
  dropped capability);
* ``error`` — no gate blocks at all: the attack would succeed.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.checkers import Checker, register
from repro.analysis.findings import Finding, RuleInfo, Severity
from repro.analysis.model import LintTarget
from repro.analysis.modelcheck.actions import (
    ChrootAction,
    EscapeAction,
    MknodAction,
    OpenDevMemAction,
    PtraceAction,
    ShmRendezvousAction,
    blocked_by_isolation,
    residual_defense,
)
from repro.analysis.modelcheck.state import initial_state


class EscapeChecker(Checker):
    """Shared logic: lint one escape action's gates from the initial state."""

    #: set by subclasses: the route's escape action and where a finding
    #: points in the configuration
    action: EscapeAction
    location: str

    def check(self, target: LintTarget) -> Iterator[Finding]:
        action = self.action
        gates = action.gates(initial_state(target))
        past_isolation = not blocked_by_isolation(gates)
        residual = residual_defense(gates)
        evidence = {
            "attack_id": action.attack_id,
            "gates": [{"name": g.name, "layer": g.layer,
                       "blocked": g.blocked} for g in gates],
            "reachable_past_isolation": past_isolation,
        }
        if not residual:
            yield self._finding(
                target, self.location,
                f"{action.route_name}: statically reachable — no namespace, "
                f"path or capability gate blocks this escape",
                evidence=evidence, severity=Severity.ERROR)
        elif past_isolation and len(gates) > 1:
            # single-gate routes (chroot/mknod) are capability-gated by
            # design for every spec; flagging them would tag the entire
            # catalog. Multi-gate routes losing all isolation layers is a
            # real reduction the spec opted into — surface it.
            yield self._finding(
                target, self.location,
                f"{action.route_name}: perforations remove every isolation "
                f"layer; containment rests solely on {residual}",
                evidence=evidence, severity=Severity.WARNING)


@register
class ChrootEscapeChecker(EscapeChecker):
    action = ChrootAction()
    location = "capabilities.CAP_SYS_CHROOT"
    rules = (RuleInfo(
        "WIT001", "chroot escape reachable", Severity.ERROR,
        "The double-chroot escape (Table 1, attack 1) is capability-gated "
        "only; if the configured capability set retains CAP_SYS_CHROOT the "
        "escape is statically reachable."),)


@register
class PtraceEscapeChecker(EscapeChecker):
    action = PtraceAction()
    location = "spec.process_management"
    rules = (RuleInfo(
        "WIT002", "ptrace bind-shell path reaches the capability gate",
        Severity.WARNING,
        "With process_management the PID namespace is shared, so host "
        "processes are visible (Table 1, attack 2); only the dropped "
        "CAP_SYS_PTRACE still blocks turning one into a bind shell."),)


@register
class MknodEscapeChecker(EscapeChecker):
    action = MknodAction()
    location = "capabilities.CAP_MKNOD"
    rules = (RuleInfo(
        "WIT003", "raw-disk mknod escape reachable", Severity.ERROR,
        "Creating a raw block device (Table 1, attack 3) is gated only on "
        "CAP_MKNOD; a capability set retaining it re-opens the escape."),)


@register
class DevMemEscapeChecker(EscapeChecker):
    action = OpenDevMemAction()
    location = "spec.fs_shares"
    rules = (RuleInfo(
        "WIT004", "/dev/mem memory tap reaches the capability gate",
        Severity.WARNING,
        "The spec's filesystem shares make /dev/mem visible (Table 1, "
        "attack 4); only the paper's new CAP_DEV_MEM capability still "
        "blocks scraping kernel memory."),)


@register
class IpcEscapeChecker(EscapeChecker):
    action = ShmRendezvousAction()
    location = "spec.share_ipc"
    rules = (RuleInfo(
        "WIT005", "shared IPC namespace opens an unguarded shm channel",
        Severity.ERROR,
        "share_ipc perforates the IPC namespace; SysV shm carries no "
        "capability gate in the syscall layer, so a contained process can "
        "rendezvous with any host process through shared segments."),)

"""The abstract action catalog: transitions of the privilege system.

Each :class:`AbstractAction` mirrors one gate-checked operation of the
runtime — the guard (:meth:`AbstractAction.enabled`) restates exactly the
checks :mod:`repro.kernel.syscalls` and :mod:`repro.broker.policy`
enforce, and the successor (:meth:`AbstractAction.apply`) records what
the operation yields in abstract-privilege terms.

The five single-route escapes (:func:`escape_actions`) state their guard
as named :class:`Gate` s — the only statement of those kernel gates in
the repo. The BFS reads ``enabled`` (no gate blocked); the WIT001–005
linter rules and the layer cross-check read the gate walk itself from a
target's initial state, which also says *which* layer still blocks.

The witness-replay harness (:mod:`repro.analysis.modelcheck.replay`)
executes the same actions against the real simulated kernel + ITFS +
broker, keyed by :attr:`AbstractAction.name`, so any drift between this
catalog and the runtime surfaces as a static/dynamic disagreement.

Two modeling notes:

* ``syscall:bind-mount`` is deliberately a no-op on the abstract state:
  ``bind_mount`` resolves its source in the *caller's own* view, so a
  bind mount can alias what is already visible but can never widen the
  view. The BFS engine prunes identical successors, so the action never
  appears in a witness — its presence documents the claim.
* broker actions are **audited by construction** (the broker logs every
  request, granted or denied); ITFS-visible writes are audited iff the
  spec monitors the filesystem. Everything else (chroot, ptrace, mknod,
  /dev/mem I/O, shm, setns) leaves no audit-log record — device reads
  bypass ITFS entirely. A chain whose predicate-achieving step is one of
  these unaudited actions is classified plain **reachable**.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Tuple

from repro.analysis.model import DEV_MEM_PATH, LintTarget, template_covers
from repro.analysis.modelcheck.state import PrivState, initial_state
from repro.broker.policy import ClassEscalationPolicy
from repro.broker.protocol import RequestKind
from repro.kernel.capabilities import Capability
from repro.kernel.namespaces import NamespaceKind
from repro.kernel.vfs import is_subpath
from repro.tcb.integrity import WATCHIT_COMPONENT_ROOT

#: placeholder destination for a wildcard ('*') network grant.
ANY_DESTINATION = "any-destination"


class Gate(NamedTuple):
    """One kernel gate an escape action must pass, evaluated in a state.

    ``layer`` is ``"namespace"``, ``"path"`` or ``"capability"``; the first
    two are *isolation* layers (what the cross-check compares with the
    dynamic Table 1 defenses), the last is the capability bounding set.
    """

    name: str
    layer: str
    blocked: bool
    detail: str = ""


def blocked_by_isolation(gates: Iterable[Gate]) -> bool:
    """A namespace/path gate blocks the route before any capability."""
    return any(g.blocked for g in gates if g.layer != "capability")


def residual_defense(gates: Iterable[Gate]) -> str:
    """Name of the first gate still blocking (empty if none)."""
    return next((g.name for g in gates if g.blocked), "")


class AbstractAction:
    """One abstract transition; subclasses state the guard and effect."""

    #: stable catalog key (``syscall:chroot``, ``broker:share-path`` ...)
    name: str = ""
    kind: str = "syscall"
    description: str = ""
    #: parameter (share path, destination label) — empty if none.
    param: str = ""

    def gates(self, state: PrivState) -> Tuple[Gate, ...]:
        """The kernel gates this action must pass from ``state``."""
        return ()

    def enabled(self, state: PrivState) -> bool:
        return not any(g.blocked for g in self.gates(state))

    def apply(self, state: PrivState) -> PrivState:
        raise NotImplementedError

    def audited(self, state: PrivState) -> bool:
        """Does a successful run land in an audit log from ``state``?"""
        return False

    @property
    def label(self) -> str:
        return f"{self.name}({self.param})" if self.param else self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AbstractAction {self.label}>"


# ----------------------------------------------------------------------
# syscall-layer actions (guards mirror repro.kernel.syscalls)
# ----------------------------------------------------------------------

class EscapeAction(AbstractAction):
    """A single-route escape: one syscall behind its kernel gates.

    ``route`` keys the route in WIT001–005 findings and the layer
    cross-check; ``attack_id`` is its Table 1 row (0 for the shm
    surface, which Table 1 does not list).
    """

    route: str = ""
    attack_id: int = 0
    route_name: str = ""


class ChrootAction(EscapeAction):
    name = "syscall:chroot"
    description = ("double-chroot escape: pivot the root outside the "
                   "container view (kernel gate: CAP_SYS_CHROOT)")
    route = "chroot"
    attack_id = 1
    route_name = "Escape perforated container boundaries (double chroot)"

    def gates(self, state: PrivState) -> Tuple[Gate, ...]:
        return (
            Gate("CAP_SYS_CHROOT dropped", "capability",
                 blocked=not state.has_cap(Capability.CAP_SYS_CHROOT),
                 detail="kernel.syscalls.chroot requires CAP_SYS_CHROOT"),
        )

    def apply(self, state: PrivState) -> PrivState:
        return state.widen(raw_host_fs=True)


class PtraceAction(EscapeAction):
    name = "syscall:ptrace-host"
    description = ("attach to a host process and turn it into a bind "
                   "shell (kernel gates: PID-namespace visibility + "
                   "CAP_SYS_PTRACE)")
    route = "ptrace"
    attack_id = 2
    route_name = "Bind shell via ptrace of a host process"

    def gates(self, state: PrivState) -> Tuple[Gate, ...]:
        return (
            Gate("PID namespace isolation", "namespace",
                 blocked=not state.shares(NamespaceKind.PID),
                 detail="host processes invisible unless the spec grants "
                        "process_management (shared PID namespace)"),
            Gate("CAP_SYS_PTRACE dropped", "capability",
                 blocked=not state.has_cap(Capability.CAP_SYS_PTRACE),
                 detail="kernel.syscalls.ptrace_attach requires "
                        "CAP_SYS_PTRACE"),
        )

    def apply(self, state: PrivState) -> PrivState:
        # full control of an unconfined host process carries its
        # unmonitored host view with it
        return state.widen(host_exec=True, raw_host_fs=True)


class MknodAction(EscapeAction):
    name = "syscall:mknod-raw-disk"
    description = ("create a raw-disk device node and read the backing "
                   "store (kernel gate: CAP_MKNOD)")
    route = "mknod"
    attack_id = 3
    route_name = "Raw disk mounting via mknod"

    def gates(self, state: PrivState) -> Tuple[Gate, ...]:
        return (
            Gate("CAP_MKNOD dropped", "capability",
                 blocked=not state.has_cap(Capability.CAP_MKNOD),
                 detail="kernel.syscalls.mknod requires CAP_MKNOD"),
        )

    def apply(self, state: PrivState) -> PrivState:
        return state.widen(raw_host_fs=True)


class OpenDevMemAction(EscapeAction):
    name = "syscall:open-devmem"
    description = ("open /dev/mem (kernel gates: the node must be in the "
                   "ITFS view + CAP_DEV_MEM)")
    route = "devmem"
    attack_id = 4
    route_name = "Memory tapping via /dev/mem"

    def gates(self, state: PrivState) -> Tuple[Gate, ...]:
        return (
            Gate("filesystem isolation", "path",
                 blocked=not state.devmem_visible,
                 detail=f"{DEV_MEM_PATH} lies outside every fs share"),
            Gate("CAP_DEV_MEM dropped", "capability",
                 blocked=not state.has_cap(Capability.CAP_DEV_MEM),
                 detail="opening /dev/mem and /dev/kmem requires the "
                        "paper's new CAP_DEV_MEM capability"),
        )

    def enabled(self, state: PrivState) -> bool:
        # an fd already open is a facet of the state, not a kernel gate
        return not state.devmem_open and super().enabled(state)

    def apply(self, state: PrivState) -> PrivState:
        return state.widen(devmem_open=True)


class ReadDevMemAction(AbstractAction):
    name = "syscall:read-devmem"
    description = ("read kernel memory through an open /dev/mem fd — "
                   "device reads bypass ITFS, so nothing is logged")

    def enabled(self, state: PrivState) -> bool:
        return state.devmem_open and not state.kernel_memory

    def apply(self, state: PrivState) -> PrivState:
        return state.widen(kernel_memory=True)


class ShmRendezvousAction(EscapeAction):
    name = "syscall:shmget-host"
    description = ("map a host SysV shm segment (kernel gate: IPC "
                   "namespace scoping only — no capability check)")
    route = "ipc"
    route_name = "Rendezvous with host processes via SysV shared memory"

    def gates(self, state: PrivState) -> Tuple[Gate, ...]:
        # shmget carries no capability gate in the syscall layer: the IPC
        # namespace is the only line of defense for shm rendezvous
        return (
            Gate("IPC namespace isolation", "namespace",
                 blocked=not state.shares(NamespaceKind.IPC),
                 detail="shm segments are scoped to the IPC namespace; "
                        "no capability check applies"),
        )

    def apply(self, state: PrivState) -> PrivState:
        return state.widen(host_ipc=True)


class SetnsHostMntAction(AbstractAction):
    name = "syscall:setns-host-mnt"
    description = ("join host init's MNT namespace for an unmonitored "
                   "host view (kernel gates: CAP_SYS_ADMIN + PID-namespace "
                   "visibility of the target + UID-namespace ownership)")

    def enabled(self, state: PrivState) -> bool:
        # the UID-ownership rule: joining namespaces owned by the initial
        # user namespace requires the caller to live there too; perforated
        # containers always clone a fresh UID namespace, so this gate
        # closes the route for every spec
        return (state.has_cap(Capability.CAP_SYS_ADMIN)
                and state.shares(NamespaceKind.PID)
                and state.shares(NamespaceKind.UID))

    def apply(self, state: PrivState) -> PrivState:
        return state.widen(raw_host_fs=True)


class BindMountAction(AbstractAction):
    name = "syscall:bind-mount"
    description = ("bind-mount an already-visible subtree elsewhere — "
                   "resolution happens in the caller's own view, so the "
                   "abstract view never widens (a provable no-op)")

    def enabled(self, state: PrivState) -> bool:
        return (state.has_cap(Capability.CAP_SYS_ADMIN)
                and bool(state.view))

    def apply(self, state: PrivState) -> PrivState:
        return state  # aliasing only; pruned by the engine's memo table


class UmountShareAction(AbstractAction):
    name = "syscall:umount-share"
    kind = "syscall"

    def __init__(self, share: str):
        self.param = share
        self.description = (f"umount the ITFS share at {share!r} "
                            f"(kernel gate: CAP_SYS_ADMIN); shrinks the "
                            f"view, never widens it")

    def enabled(self, state: PrivState) -> bool:
        return (state.has_cap(Capability.CAP_SYS_ADMIN)
                and self.param in state.view)

    def apply(self, state: PrivState) -> PrivState:
        return state.widen(view=state.view - {self.param})


# ----------------------------------------------------------------------
# broker actions (guards mirror repro.broker.policy.ClassEscalationPolicy)
# ----------------------------------------------------------------------

class BrokerAction(AbstractAction):
    kind = "broker"

    def __init__(self, policy: ClassEscalationPolicy):
        self.policy = policy

    def audited(self, state: PrivState) -> bool:
        return True  # the broker logs every request, granted or denied


class BrokerSharePathAction(BrokerAction):
    name = "broker:share-path"

    def __init__(self, policy: ClassEscalationPolicy, host_path: str):
        super().__init__(policy)
        self.param = host_path
        self.description = (f"broker SHARE_PATH escalation: ITFS-bind "
                            f"{host_path!r} into the running container "
                            f"(policy gates: kind allowed + prefix match "
                            f"+ not a WatchIT component path)")

    def enabled(self, state: PrivState) -> bool:
        path = self.param
        if RequestKind.SHARE_PATH not in self.policy.allowed_kinds:
            return False
        if is_subpath(path, WATCHIT_COMPONENT_ROOT):
            return False
        if not any(is_subpath(path, p)
                   for p in self.policy.share_path_prefixes):
            return False
        return not state.path_visible(path)  # already visible: no-op

    def apply(self, state: PrivState) -> PrivState:
        return state.widen(view=state.view | {self.param})


class BrokerGrantNetworkAction(BrokerAction):
    name = "broker:grant-network"

    def __init__(self, policy: ClassEscalationPolicy, destination: str):
        super().__init__(policy)
        self.param = destination
        self.description = (f"broker GRANT_NETWORK escalation for "
                            f"{destination!r} (policy gate: destination "
                            f"grantable for the class)")

    def enabled(self, state: PrivState) -> bool:
        if RequestKind.GRANT_NETWORK not in self.policy.allowed_kinds:
            return False
        if self.param in state.net_grants:
            return False
        return ("*" in self.policy.network_destinations
                or self.param in self.policy.network_destinations)

    def apply(self, state: PrivState) -> PrivState:
        return state.widen(net_grants=state.net_grants | {self.param})


class BrokerExecAction(BrokerAction):
    name = "broker:exec"

    def __init__(self, policy: ClassEscalationPolicy):
        super().__init__(policy)
        self.param = ",".join(sorted(policy.exec_commands))
        self.description = ("broker EXEC escalation (PB command surface; "
                            "policy gate: command in the class allowlist)")

    def enabled(self, state: PrivState) -> bool:
        return (RequestKind.EXEC in self.policy.allowed_kinds
                and bool(self.policy.exec_commands)
                and not state.pb_exec)

    def apply(self, state: PrivState) -> PrivState:
        return state.widen(pb_exec=True)


# ----------------------------------------------------------------------
# ITFS actions
# ----------------------------------------------------------------------

class ItfsWriteAction(AbstractAction):
    name = "itfs:write-shared"
    kind = "itfs"
    description = ("write host data through an ITFS share — audited "
                   "whenever the spec monitors the filesystem")

    def enabled(self, state: PrivState) -> bool:
        return bool(state.view) and not state.host_write

    def apply(self, state: PrivState) -> PrivState:
        return state.widen(host_write=True)

    def audited(self, state: PrivState) -> bool:
        return state.monitored_fs


# ----------------------------------------------------------------------
# catalog construction
# ----------------------------------------------------------------------

def _share_candidates(target: LintTarget,
                      policy: Optional[ClassEscalationPolicy]
                      ) -> Tuple[str, ...]:
    """Host paths worth asking the broker to share.

    Each shareable prefix itself is the maximal grant under it, so the
    prefixes are sufficient for reachability. ``/dev`` is added whenever
    a prefix covers it — the one subtree whose exposure feeds an escape
    predicate (``/dev/mem``).
    """
    if policy is None:
        return ()
    candidates = []
    for prefix in policy.share_path_prefixes:
        if is_subpath(prefix, WATCHIT_COMPONENT_ROOT):
            continue
        candidates.append(prefix)
        if template_covers(prefix, "/dev") and "/dev" != prefix:
            candidates.append("/dev")
    if any(is_subpath(DEV_MEM_PATH, c) for c in candidates) and \
            "/dev" not in candidates:
        candidates.append("/dev")
    return tuple(sorted(set(candidates)))


def _network_candidates(policy: Optional[ClassEscalationPolicy]
                        ) -> Tuple[str, ...]:
    if policy is None:
        return ()
    dests = sorted(policy.network_destinations - {"*"})
    if "*" in policy.network_destinations:
        dests.append(ANY_DESTINATION)
    return tuple(dests)


def escape_actions() -> Tuple[EscapeAction, ...]:
    """The five single-route escapes, in WIT001–005 / cross-check order."""
    return (ChrootAction(), PtraceAction(), MknodAction(),
            OpenDevMemAction(), ShmRendezvousAction())


def action_catalog(target: LintTarget) -> Tuple[AbstractAction, ...]:
    """Every abstract action applicable to ``target``'s configuration."""
    actions: list[AbstractAction] = [
        ChrootAction(), PtraceAction(), MknodAction(),
        OpenDevMemAction(), ReadDevMemAction(), ShmRendezvousAction(),
        SetnsHostMntAction(), BindMountAction(), ItfsWriteAction(),
    ]
    init = initial_state(target)
    for share in sorted(init.view):
        actions.append(UmountShareAction(share))
    policy = target.broker_policy
    if policy is not None:
        for path in _share_candidates(target, policy):
            actions.append(BrokerSharePathAction(policy, path))
        for dest in _network_candidates(policy):
            actions.append(BrokerGrantNetworkAction(policy, dest))
        actions.append(BrokerExecAction(policy))
    return tuple(actions)


__all__ = [
    "ANY_DESTINATION",
    "AbstractAction",
    "BindMountAction",
    "BrokerExecAction",
    "BrokerGrantNetworkAction",
    "BrokerSharePathAction",
    "ChrootAction",
    "EscapeAction",
    "Gate",
    "ItfsWriteAction",
    "MknodAction",
    "OpenDevMemAction",
    "PtraceAction",
    "ReadDevMemAction",
    "SetnsHostMntAction",
    "ShmRendezvousAction",
    "UmountShareAction",
    "action_catalog",
    "blocked_by_isolation",
    "escape_actions",
    "residual_defense",
]

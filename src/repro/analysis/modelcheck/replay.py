"""Live-rig validation of the privilege model: layer cross-check + replay.

Both harnesses stand up a live rig (simulated kernel + ITFS + broker, via
:meth:`~repro.threats.attacks.ThreatRig.build`) and check a static claim
of the model checker against the runtime.

**Layer cross-check** (:func:`run_crosscheck`, ``repro lint
--crosscheck``). For every spec, the gate walk of each escape action
(:func:`~repro.analysis.modelcheck.actions.escape_actions`) from the
spec's initial state is compared with the Table 1 attack actually run
against a container deployed with that spec:

* the walk is **blocked by isolation** (a namespace/path gate) ⇔ the
  dynamic attack must be stopped by exactly that isolation layer (the
  dynamic defense names the gate, e.g. "PID namespace isolation");
* the walk **reaches the capability gate** ⇔ the dynamic attack must be
  stopped by the capability check, not by isolation.

The harness is spec-agnostic: the policy miner reuses it over *mined*
specs (``repro mine --crosscheck``).

**Witness replay** (:func:`replay_target`, ``repro verify-model``). The
rig matches the lint target — same spec, same capability set, same
broker class policy — and every verdict of the bounded model checker is
checked against it:

* a **reachable** verdict's minimal witness is executed step by step;
  every step must succeed against the real gates;
* an **unreachable** verdict on an escape predicate is probed with the
  corresponding Table 1 attacks (the cross-check's own runners, and a
  setns attempt); every probe must be blocked.

Probes run first, against the pristine rig; witness replays follow, since
broker grants and umounts mutate the container. Any mismatch is a
static/dynamic disagreement — a WIT043 error in the report and a failing
``repro verify-model`` run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.analysis.model import DEV_MEM_PATH, LintTarget, USER_TEMPLATE
from repro.analysis.modelcheck.actions import (
    ANY_DESTINATION,
    blocked_by_isolation,
    escape_actions,
    residual_defense,
)
from repro.analysis.modelcheck.engine import (
    ModelCheckResult,
    Reachability,
    Step,
)
from repro.analysis.modelcheck.state import initial_state
from repro.broker.policy import BrokerPolicy
from repro.containit.spec import PerforatedContainerSpec
from repro.errors import FileNotFound, ReproError
from repro.framework.images import TABLE3_SPECS
from repro.kernel import FileType, NamespaceKind
from repro.kernel.devices import DEV_SDA
from repro.threats.attacks import (
    AttackResult,
    ThreatRig,
    attack_1_chroot_escape,
    attack_2_bind_shell,
    attack_3_raw_disk,
    attack_4_memory_tap,
)

#: literal destination a replayed wildcard network grant asks for.
PROBE_DESTINATION = "203.0.113.9"
#: marker file a replayed ITFS write creates inside a shared subtree.
WITNESS_MARKER = ".watchit-model-witness"

_SHM_PROBE_KEY = 0x51DE


def _dynamic_attack_4(rig: ThreatRig) -> AttackResult:
    """Attack 4, tolerant of specs whose view has no /dev/mem at all."""
    try:
        return attack_4_memory_tap(rig)
    except FileNotFound:
        return AttackResult(4, "Memory tapping", blocked=True,
                            defense="filesystem isolation",
                            evidence="/dev/mem not visible in container view")


def _dynamic_ipc_probe(rig: ThreatRig) -> AttackResult:
    """Plant a host shm segment; check whether the shell can see it."""
    rig.host.sys.shmget(rig.host.init, key=_SHM_PROBE_KEY, size=64,
                        create=True)
    visible = any(seg.key == _SHM_PROBE_KEY
                  for seg in rig.host.sys.shm_list(rig.shell.proc))
    if visible:
        return AttackResult(0, "Host shm rendezvous", blocked=False,
                            defense="none (shared IPC namespace)",
                            evidence="host shm segment visible from "
                                     "container")
    return AttackResult(0, "Host shm rendezvous", blocked=True,
                        defense="IPC namespace isolation",
                        evidence="host shm segment invisible from container")


#: escape route -> dynamic attack runner.
DYNAMIC_ATTACKS: Dict[str, Callable[[ThreatRig], AttackResult]] = {
    "chroot": attack_1_chroot_escape,
    "ptrace": attack_2_bind_shell,
    "mknod": attack_3_raw_disk,
    "devmem": _dynamic_attack_4,
    "ipc": _dynamic_ipc_probe,
}

#: escape predicate -> escape routes probing its unreachability.
_UNREACHABLE_PROBES: Dict[str, Tuple[str, ...]] = {
    "host-fs-raw": ("chroot", "mknod"),
    "host-exec": ("ptrace",),
    "kernel-memory": ("devmem",),
    "host-ipc": ("ipc",),
}


@dataclass(frozen=True)
class ReplayRow:
    """One static-claim-vs-dynamic-outcome comparison."""

    target: str
    predicate: str
    verdict: str
    mode: str             # "witness" or "probe"
    agreed: bool
    detail: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "target": self.target, "predicate": self.predicate,
            "verdict": self.verdict, "mode": self.mode,
            "agreed": self.agreed, "detail": self.detail,
        }


class _ReplaySession:
    """Mutable per-rig context shared by the step runners."""

    def __init__(self, rig: ThreatRig, user: str):
        self.rig = rig
        self.user = user
        self.devmem_fd: Optional[int] = None
        self.shared_paths: Set[str] = set()

    def concrete(self, template: str) -> str:
        return template.replace(USER_TEMPLATE, self.user)


StepRunner = Callable[[_ReplaySession, Step], str]


def _run_chroot(session: _ReplaySession, step: Step) -> str:
    rig = session.rig
    rig.host.sys.chroot(rig.shell.proc, "/tmp")
    return "chroot('/tmp') succeeded"


def _run_ptrace(session: _ReplaySession, step: Step) -> str:
    rig = session.rig
    target = rig.host.services["sshd"]
    nspid = target.pid_in(rig.shell.proc.namespaces.pid)
    if nspid is None:
        raise ReproError("host process invisible: PID namespace isolation")
    rig.host.sys.ptrace_attach(rig.shell.proc, nspid)
    return f"ptrace attached to host pid {nspid}"


def _run_mknod(session: _ReplaySession, step: Step) -> str:
    rig = session.rig
    rig.host.sys.mknod(rig.shell.proc, "/tmp/model-rawdisk",
                       FileType.BLOCKDEV, DEV_SDA)
    data = rig.host.sys.read_file(rig.shell.proc, "/tmp/model-rawdisk")
    return f"read {len(data)} raw bytes via mknod'd device"


def _run_open_devmem(session: _ReplaySession, step: Step) -> str:
    rig = session.rig
    session.devmem_fd = rig.host.sys.open(rig.shell.proc, DEV_MEM_PATH)
    return f"open({DEV_MEM_PATH}) -> fd {session.devmem_fd}"


def _run_read_devmem(session: _ReplaySession, step: Step) -> str:
    rig = session.rig
    if session.devmem_fd is None:
        raise ReproError("witness ordering: no open /dev/mem fd")
    data = rig.host.sys.read_fd(rig.shell.proc, session.devmem_fd, 64)
    if not data:
        raise ReproError("/dev/mem read returned no data")
    return f"read {len(data)} bytes of kernel memory (unlogged)"


def _run_shm(session: _ReplaySession, step: Step) -> str:
    result = _dynamic_ipc_probe(session.rig)
    if result.blocked:
        raise ReproError(result.evidence)
    return result.evidence


def _run_setns(session: _ReplaySession, step: Step) -> str:
    rig = session.rig
    nspid = rig.host.init.pid_in(rig.shell.proc.namespaces.pid)
    if nspid is None:
        raise ReproError("host init invisible: PID namespace isolation")
    rig.host.sys.setns(rig.shell.proc, rig.host.init, [NamespaceKind.MNT])
    return "joined host init's MNT namespace"


def _run_umount(session: _ReplaySession, step: Step) -> str:
    rig = session.rig
    path = session.concrete(step.param)
    rig.host.sys.umount(rig.shell.proc, path)
    return f"umounted {path}"


def _run_share_path(session: _ReplaySession, step: Step) -> str:
    if step.param in session.shared_paths:
        return f"{step.param} already shared earlier in this replay"
    response = session.rig.client.share_path(step.param)
    if not response.ok:
        raise ReproError(f"broker denied SHARE_PATH: {response.error}")
    session.shared_paths.add(step.param)
    return f"broker shared {step.param} into the container"


def _run_grant_network(session: _ReplaySession, step: Step) -> str:
    destination = (PROBE_DESTINATION if step.param == ANY_DESTINATION
                   else step.param)
    response = session.rig.client.grant_network(destination, port=443)
    if not response.ok:
        raise ReproError(f"broker denied GRANT_NETWORK: {response.error}")
    return f"broker granted network access to {destination}"


def _run_broker_exec(session: _ReplaySession, step: Step) -> str:
    commands = [c for c in step.param.split(",") if c]
    for preferred in ("hostname", "mounts", "ps"):
        if preferred in commands:
            command = preferred
            break
    else:
        command = commands[0] if commands else "ps"
    line = "ps -a" if command == "ps" else command
    response = session.rig.client.pb(line)
    if not response.ok:
        raise ReproError(f"broker denied EXEC {line!r}: {response.error}")
    return f"PB {line} executed on the host"


def _run_itfs_write(session: _ReplaySession, step: Step) -> str:
    if not step.view:
        raise ReproError("witness has no visible share to write through")
    base = session.concrete(sorted(step.view)[0]).rstrip("/")
    path = f"{base}/{WITNESS_MARKER}"
    session.rig.shell.write_file(path, b"modelcheck witness probe")
    return f"wrote host data at {path} through ITFS"


_STEP_RUNNERS: Dict[str, StepRunner] = {
    "syscall:chroot": _run_chroot,
    "syscall:ptrace-host": _run_ptrace,
    "syscall:mknod-raw-disk": _run_mknod,
    "syscall:open-devmem": _run_open_devmem,
    "syscall:read-devmem": _run_read_devmem,
    "syscall:shmget-host": _run_shm,
    "syscall:setns-host-mnt": _run_setns,
    "syscall:umount-share": _run_umount,
    "broker:share-path": _run_share_path,
    "broker:grant-network": _run_grant_network,
    "broker:exec": _run_broker_exec,
    "itfs:write-shared": _run_itfs_write,
}


def _probe_unreachable(session: _ReplaySession, predicate_key: str,
                       verdict: str) -> ReplayRow:
    """Every corresponding dynamic attack must be *blocked*."""
    rig = session.rig
    details: List[str] = []
    agreed = True
    for attack_key in _UNREACHABLE_PROBES.get(predicate_key, ()):
        result = DYNAMIC_ATTACKS[attack_key](rig)
        details.append(f"{attack_key}: "
                       f"{'blocked' if result.blocked else 'SUCCEEDED'}"
                       f" ({result.defense})")
        agreed = agreed and result.blocked
    if predicate_key == "host-fs-raw":
        # the fifth route: setns into host init's MNT namespace
        try:
            detail = _run_setns(session, _SETNS_PROBE_STEP)
            details.append(f"setns: SUCCEEDED ({detail})")
            agreed = False
        except ReproError as exc:
            details.append(f"setns: blocked ({exc})")
    return ReplayRow(
        target=session.rig.container.spec.name, predicate=predicate_key,
        verdict=verdict, mode="probe", agreed=agreed,
        detail="; ".join(details) or "no dynamic probe for predicate")


_SETNS_PROBE_STEP = Step(
    action="syscall:setns-host-mnt", param="", kind="syscall",
    description="probe", audited=False, view=(), state_digest="probe")


def _replay_witness(session: _ReplaySession, predicate_key: str,
                    verdict: str, witness: Tuple[Step, ...]) -> ReplayRow:
    """Every step of a reachable verdict's witness must succeed."""
    details: List[str] = []
    agreed = True
    for step in witness:
        runner = _STEP_RUNNERS.get(step.action)
        if runner is None:
            details.append(f"{step.label}: no replay runner")
            agreed = False
            break
        try:
            details.append(f"{step.label}: {runner(session, step)}")
        except ReproError as exc:
            details.append(f"{step.label}: FAILED ({exc})")
            agreed = False
            break
    return ReplayRow(
        target=session.rig.container.spec.name, predicate=predicate_key,
        verdict=verdict, mode="witness", agreed=agreed,
        detail="; ".join(details) or "empty witness")


def replay_target(target: LintTarget,
                  result: ModelCheckResult) -> List[ReplayRow]:
    """Check every verdict for ``target`` against one live rig."""
    policy = (BrokerPolicy(default=target.broker_policy)
              if target.broker_policy is not None else None)
    rig = ThreatRig.build(target.spec, capabilities=target.capabilities,
                          broker_policy=policy)
    session = _ReplaySession(rig, user=rig.container.user)
    rows: List[ReplayRow] = []
    try:
        # pristine-rig probes first: unreachable escape predicates
        for verdict in result.verdicts:
            if (verdict.predicate.escape
                    and verdict.reachability is Reachability.UNREACHABLE):
                rows.append(_probe_unreachable(
                    session, verdict.predicate.key,
                    verdict.reachability.value))
        # then the mutating witness replays
        for verdict in result.verdicts:
            if verdict.reachability is Reachability.UNREACHABLE:
                continue
            rows.append(_replay_witness(
                session, verdict.predicate.key,
                verdict.reachability.value, verdict.witness))
    finally:
        rig.container.terminate("witness replay done")
    metrics = obs.registry()
    for row in rows:
        metrics.counter(
            "modelcheck_replay_total", target=target.name,
            outcome="agree" if row.agreed else "disagree").inc()
    return rows


# ----------------------------------------------------------------------
# layer cross-check: escape-action gate walks vs the Table 1 attacks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CrossCheckRow:
    """One (ticket class, escape route) comparison."""

    ticket_class: str
    escape_key: str
    attack_id: int
    static_reachable_past_isolation: bool
    static_residual_defense: str
    dynamic_blocked: bool
    dynamic_defense: str
    dynamic_blocked_by_isolation: bool

    @property
    def consistent(self) -> bool:
        """Static and dynamic agree on *which layer* stops the attack."""
        return self.static_reachable_past_isolation == \
            (not self.dynamic_blocked_by_isolation)

    def to_dict(self) -> Dict[str, object]:
        return {
            "class": self.ticket_class,
            "escape": self.escape_key,
            "attack_id": self.attack_id,
            "static_reachable_past_isolation":
                self.static_reachable_past_isolation,
            "static_residual_defense": self.static_residual_defense,
            "dynamic_blocked": self.dynamic_blocked,
            "dynamic_defense": self.dynamic_defense,
            "consistent": self.consistent,
        }


@dataclass
class CrossCheckReport:
    """All comparisons over a spec catalog."""

    rows: List[CrossCheckRow]

    @property
    def consistent(self) -> bool:
        return all(row.consistent for row in self.rows)

    @property
    def inconsistencies(self) -> List[CrossCheckRow]:
        return [row for row in self.rows if not row.consistent]

    def rows_for(self, ticket_class: str) -> List[CrossCheckRow]:
        return [r for r in self.rows if r.ticket_class == ticket_class]

    def format(self) -> str:
        lines = [f"{'class':<6} {'escape':<8} {'static':<22} "
                 f"{'dynamic defense':<40} agree"]
        for row in self.rows:
            static = ("reaches capability gate"
                      if row.static_reachable_past_isolation
                      else "blocked by isolation")
            lines.append(f"{row.ticket_class:<6} {row.escape_key:<8} "
                         f"{static:<22} {row.dynamic_defense:<40} "
                         f"{'yes' if row.consistent else 'NO'}")
        verdict = "CONSISTENT" if self.consistent else \
            f"{len(self.inconsistencies)} INCONSISTENT row(s)"
        lines.append(f"static/dynamic cross-check: {verdict} "
                     f"({len(self.rows)} comparisons)")
        return "\n".join(lines)


def crosscheck_spec(spec: PerforatedContainerSpec) -> List[CrossCheckRow]:
    """Compare each escape action's gate walk with its live attack."""
    state = initial_state(LintTarget(spec=spec))
    rig = ThreatRig.build(spec)
    rows: List[CrossCheckRow] = []
    try:
        for action in escape_actions():
            gates = action.gates(state)
            isolation = {g.name for g in gates if g.layer != "capability"}
            result = DYNAMIC_ATTACKS[action.route](rig)
            rows.append(CrossCheckRow(
                ticket_class=spec.name,
                escape_key=action.route,
                attack_id=action.attack_id,
                static_reachable_past_isolation=not blocked_by_isolation(
                    gates),
                static_residual_defense=residual_defense(gates),
                dynamic_blocked=result.blocked,
                dynamic_defense=result.defense,
                dynamic_blocked_by_isolation=(
                    result.blocked and result.defense in isolation)))
    finally:
        rig.container.terminate("cross-check done")
    return rows


def run_crosscheck(specs: Optional[Dict[str, PerforatedContainerSpec]] = None
                   ) -> CrossCheckReport:
    """Cross-check a catalog (default: the Table 3 specs)."""
    specs = TABLE3_SPECS if specs is None else specs
    rows: List[CrossCheckRow] = []
    for name in sorted(specs, key=lambda n: (len(n), n)):
        rows.extend(crosscheck_spec(specs[name]))
    return CrossCheckReport(rows=rows)


__all__ = [
    "CrossCheckReport",
    "CrossCheckRow",
    "DYNAMIC_ATTACKS",
    "PROBE_DESTINATION",
    "WITNESS_MARKER",
    "ReplayRow",
    "crosscheck_spec",
    "replay_target",
    "run_crosscheck",
]

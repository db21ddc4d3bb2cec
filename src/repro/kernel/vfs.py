"""Virtual filesystem core: inodes, path helpers, and the Filesystem ABC.

The simulated VFS mirrors the parts of Linux that WatchIT's mechanisms
depend on: a per-superblock inode tree, mount tables per MNT namespace
(:mod:`repro.kernel.mount`), ``chroot`` roots per process, and a uniform
operation surface that a monitoring filesystem (ITFS) can interpose on.

Every operation accepts an optional :class:`OpContext` carrying the calling
process; plain in-memory filesystems ignore it, while ITFS uses it for
policy decisions and audit logging — the same way FUSE callbacks see the
caller on real Linux.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
)

_INO_COUNTER = itertools.count(2)  # ino 1 is reserved for roots


class FileType(enum.Enum):
    """Inode type, mirroring the relevant ``S_IF*`` kinds."""

    REGULAR = "regular"
    DIRECTORY = "directory"
    SYMLINK = "symlink"
    CHARDEV = "chardev"
    BLOCKDEV = "blockdev"


def normalize_path(path: str) -> str:
    """Normalize ``path`` to an absolute, ``.``/``..``-free form.

    The VFS works exclusively with absolute paths; relative paths are
    resolved against the process cwd before reaching this layer.

    A path that is already normal (absolute, no empty, ``.`` or ``..``
    component, no trailing ``/`` except for ``/`` itself) is returned
    unchanged without being split: the resolver hands every lookup an
    already-normal path, so this is the common case.

    Raises:
        InvalidArgument: if ``path`` is empty.
    """
    if not path:
        raise InvalidArgument("empty path")
    if path == "/" or (path[0] == "/" and path[-1] != "/" and "//" not in path
                       and "/./" not in path and "/../" not in path
                       and not path.endswith(("/.", "/.."))):
        return path
    parts: List[str] = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if parts:
                parts.pop()
            continue
        parts.append(part)
    return "/" + "/".join(parts)


def split_path(path: str) -> List[str]:
    """Split a normalized path into its components (``/`` -> ``[]``)."""
    norm = normalize_path(path)
    if norm == "/":
        return []
    return norm[1:].split("/")


def join_path(base: str, *parts: str) -> str:
    """Join path fragments and normalize the result."""
    return normalize_path("/".join([base, *parts]))


def parent_path(path: str) -> str:
    """Return the parent directory of a normalized path (parent of / is /)."""
    comps = split_path(path)
    if not comps:
        return "/"
    return "/" + "/".join(comps[:-1])


def basename(path: str) -> str:
    """Return the final component of a normalized path ('' for /)."""
    comps = split_path(path)
    return comps[-1] if comps else ""


def is_subpath(path: str, prefix: str) -> bool:
    """True if ``path`` equals ``prefix`` or lies under it."""
    path = normalize_path(path)
    prefix = normalize_path(prefix)
    if prefix == "/":
        return True
    return path == prefix or path.startswith(prefix + "/")


@dataclass
class Inode:
    """A filesystem object.

    Attributes:
        ftype: inode type.
        mode: permission bits (e.g. ``0o644``).
        uid / gid: owner, in host uid terms.
        data: file content for regular files.
        children: name -> Inode map for directories.
        target: link target for symlinks.
        rdev: device identifier for device nodes, resolved through the
            kernel's :class:`~repro.kernel.devices.DeviceRegistry`.
    """

    ftype: FileType = FileType.REGULAR
    mode: int = 0o644
    uid: int = 0
    gid: int = 0
    data: bytes = b""
    children: Optional[Dict[str, "Inode"]] = None
    target: str = ""
    rdev: Optional[Tuple[int, int]] = None
    ino: int = field(default_factory=lambda: next(_INO_COUNTER))
    mtime: int = 0

    def __post_init__(self):
        if self.ftype is FileType.DIRECTORY and self.children is None:
            self.children = {}

    @property
    def is_dir(self) -> bool:
        return self.ftype is FileType.DIRECTORY

    @property
    def is_symlink(self) -> bool:
        return self.ftype is FileType.SYMLINK

    @property
    def is_device(self) -> bool:
        return self.ftype in (FileType.CHARDEV, FileType.BLOCKDEV)

    @property
    def size(self) -> int:
        """Content size for files, entry count for directories."""
        if self.is_dir:
            return len(self.children or {})
        return len(self.data)


@dataclass(frozen=True)
class StatResult:
    """Result of a ``stat`` call — a stable snapshot of inode metadata."""

    ftype: FileType
    mode: int
    uid: int
    gid: int
    size: int
    ino: int
    mtime: int
    fstype: str


@dataclass
class OpContext:
    """Who is performing a VFS operation, and through which syscall.

    Passed down from the syscall layer so monitoring filesystems (ITFS) can
    attribute, filter, and log accesses. ``proc`` is a
    :class:`repro.kernel.process.Process` (kept untyped here to avoid an
    import cycle).
    """

    proc: object = None
    op: str = ""
    vpath: str = ""  # the path as the caller named it (inside its own view)

    @property
    def pid(self) -> int:
        return getattr(self.proc, "pid", -1)

    @property
    def comm(self) -> str:
        return getattr(self.proc, "comm", "?")


_FSID_COUNTER = itertools.count(1)


class Filesystem:
    """Base class for simulated filesystems (one instance == one superblock).

    All methods take *filesystem-internal* absolute paths; translating a
    process-visible path through mounts and chroot into ``(fs, fspath)`` is
    the resolver's job. Methods accept an optional ``ctx`` (:class:`OpContext`)
    which plain filesystems ignore.
    """

    fstype = "none"

    def __init__(self, fstype: Optional[str] = None, label: str = ""):
        if fstype is not None:
            self.fstype = fstype
        self.label = label or self.fstype
        self.fsid = next(_FSID_COUNTER)
        self.read_only = False

    # -- interface -------------------------------------------------------

    def lookup(self, path: str, ctx: OpContext | None = None) -> Inode:
        """Return the inode at ``path`` or raise :class:`FileNotFound`."""
        raise NotImplementedError

    def exists(self, path: str, ctx: OpContext | None = None) -> bool:
        """True if ``path`` resolves to an inode.

        Mirrors ``os.path.exists``: a missing entry *or* a non-directory
        component (ENOTDIR) both report False.
        """
        try:
            self.lookup(path, ctx)
            return True
        except (FileNotFound, NotADirectory):
            return False

    def readdir(self, path: str, ctx: OpContext | None = None) -> List[str]:
        raise NotImplementedError

    def read(self, path: str, ctx: OpContext | None = None) -> bytes:
        raise NotImplementedError

    def read_head(self, path: str, size: int, ctx: OpContext | None = None) -> bytes:
        """Read the first ``size`` bytes (used for signature sniffing)."""
        return self.read(path, ctx)[:size]

    def write(self, path: str, data: bytes, ctx: OpContext | None = None,
              append: bool = False) -> None:
        raise NotImplementedError

    def create(self, path: str, ctx: OpContext | None = None, mode: int = 0o644,
               exist_ok: bool = True) -> Inode:
        raise NotImplementedError

    def mkdir(self, path: str, ctx: OpContext | None = None, mode: int = 0o755,
              parents: bool = False) -> Inode:
        raise NotImplementedError

    def unlink(self, path: str, ctx: OpContext | None = None) -> None:
        raise NotImplementedError

    def rmdir(self, path: str, ctx: OpContext | None = None) -> None:
        raise NotImplementedError

    def rename(self, src: str, dst: str, ctx: OpContext | None = None) -> None:
        raise NotImplementedError

    def symlink(self, path: str, target: str, ctx: OpContext | None = None) -> Inode:
        raise NotImplementedError

    def mknod(self, path: str, ftype: FileType, rdev: Tuple[int, int],
              ctx: OpContext | None = None, mode: int = 0o600) -> Inode:
        raise NotImplementedError

    def truncate(self, path: str, size: int = 0, ctx: OpContext | None = None) -> None:
        raise NotImplementedError

    def chmod(self, path: str, mode: int, ctx: OpContext | None = None) -> None:
        raise NotImplementedError

    def chown(self, path: str, uid: int, gid: int, ctx: OpContext | None = None) -> None:
        raise NotImplementedError

    def stat(self, path: str, ctx: OpContext | None = None) -> StatResult:
        node = self.lookup(path, ctx)
        return StatResult(
            ftype=node.ftype, mode=node.mode, uid=node.uid, gid=node.gid,
            size=node.size, ino=node.ino, mtime=node.mtime, fstype=self.fstype,
        )

    def walk(self, path: str = "/", ctx: OpContext | None = None
             ) -> Iterator[Tuple[str, List[str], List[str]]]:
        """Depth-first traversal yielding ``(dirpath, dirnames, filenames)``.

        Mirrors :func:`os.walk`; used by workload drivers (grep) and by the
        TCB integrity scanner.
        """
        node = self.lookup(path, ctx)
        if not node.is_dir:
            raise NotADirectory(path)
        names = sorted(self.readdir(path, ctx))
        dirnames, filenames = [], []
        for name in names:
            child = self.lookup(join_path(path, name), ctx)
            (dirnames if child.is_dir else filenames).append(name)
        yield normalize_path(path), dirnames, filenames
        for name in dirnames:
            yield from self.walk(join_path(path, name), ctx)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} fstype={self.fstype} label={self.label}>"


class MemoryFilesystem(Filesystem):
    """A concrete in-memory filesystem (stands in for ext4 / tmpfs).

    Holds a full inode tree and supports every VFS operation. Used for host
    root filesystems, tmpfs mounts, and benchmark file trees.
    """

    fstype = "ext4"

    def __init__(self, fstype: str = "ext4", label: str = ""):
        super().__init__(fstype=fstype, label=label)
        self.root = Inode(ftype=FileType.DIRECTORY, mode=0o755, ino=1)
        self._clock = 0

    # -- internals -------------------------------------------------------

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    @property
    def generation(self) -> int:
        """Monotone mutation counter: advances on every state change.

        Equal generations guarantee the tree is byte-for-byte unchanged —
        the container pool's scrub verification relies on this to prove a
        released container's private filesystem was never touched without
        walking it.
        """
        return self._clock

    def _resolve(self, path: str) -> Inode:
        node = self.root
        for comp in split_path(path):
            if not node.is_dir:
                raise NotADirectory(path)
            try:
                node = node.children[comp]
            except KeyError:
                raise FileNotFound(path) from None
        return node

    def _resolve_parent(self, path: str) -> Tuple[Inode, str]:
        comps = split_path(path)
        if not comps:
            raise InvalidArgument("operation on /")
        parent = self._resolve("/" + "/".join(comps[:-1]))
        if not parent.is_dir:
            raise NotADirectory(path)
        return parent, comps[-1]

    # -- Filesystem interface -------------------------------------------

    def lookup(self, path: str, ctx: OpContext | None = None) -> Inode:
        return self._resolve(path)

    def readdir(self, path: str, ctx: OpContext | None = None) -> List[str]:
        node = self._resolve(path)
        if not node.is_dir:
            raise NotADirectory(path)
        return sorted(node.children)

    def read(self, path: str, ctx: OpContext | None = None) -> bytes:
        node = self._resolve(path)
        if node.is_dir:
            raise IsADirectory(path)
        if node.is_symlink:
            raise InvalidArgument(f"read through unresolved symlink: {path}")
        return bytes(node.data)

    def read_head(self, path: str, size: int, ctx: OpContext | None = None) -> bytes:
        node = self._resolve(path)
        if node.is_dir:
            raise IsADirectory(path)
        return bytes(node.data[:size])

    def write(self, path: str, data: bytes, ctx: OpContext | None = None,
              append: bool = False) -> None:
        try:
            node = self._resolve(path)
        except FileNotFound:
            node = self.create(path, ctx)
        if node.is_dir:
            raise IsADirectory(path)
        node.data = (node.data + data) if append else bytes(data)
        node.mtime = self._tick()

    def create(self, path: str, ctx: OpContext | None = None, mode: int = 0o644,
               exist_ok: bool = True) -> Inode:
        parent, name = self._resolve_parent(path)
        if name in parent.children:
            node = parent.children[name]
            if node.is_dir:
                raise IsADirectory(path)
            if not exist_ok:
                raise FileExists(path)
            return node
        node = Inode(ftype=FileType.REGULAR, mode=mode, mtime=self._tick())
        if ctx is not None and ctx.proc is not None:
            node.uid = getattr(getattr(ctx.proc, "creds", None), "uid", 0)
            node.gid = getattr(getattr(ctx.proc, "creds", None), "gid", 0)
        parent.children[name] = node
        return node

    def mkdir(self, path: str, ctx: OpContext | None = None, mode: int = 0o755,
              parents: bool = False) -> Inode:
        if parents:
            comps = split_path(path)
            cur = "/"
            node = self.root
            for comp in comps:
                cur = join_path(cur, comp)
                if not self.exists(cur):
                    node = self.mkdir(cur, ctx, mode=mode)
                else:
                    node = self._resolve(cur)
                    if not node.is_dir:
                        raise NotADirectory(cur)
            return node
        parent, name = self._resolve_parent(path)
        if name in parent.children:
            raise FileExists(path)
        node = Inode(ftype=FileType.DIRECTORY, mode=mode, mtime=self._tick())
        parent.children[name] = node
        return node

    def unlink(self, path: str, ctx: OpContext | None = None) -> None:
        parent, name = self._resolve_parent(path)
        node = parent.children.get(name)
        if node is None:
            raise FileNotFound(path)
        if node.is_dir:
            raise IsADirectory(path)
        del parent.children[name]
        self._tick()

    def rmdir(self, path: str, ctx: OpContext | None = None) -> None:
        parent, name = self._resolve_parent(path)
        node = parent.children.get(name)
        if node is None:
            raise FileNotFound(path)
        if not node.is_dir:
            raise NotADirectory(path)
        if node.children:
            raise DirectoryNotEmpty(path)
        del parent.children[name]
        self._tick()

    def rename(self, src: str, dst: str, ctx: OpContext | None = None) -> None:
        sparent, sname = self._resolve_parent(src)
        if sname not in sparent.children:
            raise FileNotFound(src)
        dparent, dname = self._resolve_parent(dst)
        node = sparent.children.pop(sname)
        dparent.children[dname] = node
        node.mtime = self._tick()

    def symlink(self, path: str, target: str, ctx: OpContext | None = None) -> Inode:
        parent, name = self._resolve_parent(path)
        if name in parent.children:
            raise FileExists(path)
        node = Inode(ftype=FileType.SYMLINK, target=target, mode=0o777,
                     mtime=self._tick())
        parent.children[name] = node
        return node

    def mknod(self, path: str, ftype: FileType, rdev: Tuple[int, int],
              ctx: OpContext | None = None, mode: int = 0o600) -> Inode:
        if ftype not in (FileType.CHARDEV, FileType.BLOCKDEV):
            raise InvalidArgument("mknod supports device nodes only")
        parent, name = self._resolve_parent(path)
        if name in parent.children:
            raise FileExists(path)
        node = Inode(ftype=ftype, rdev=rdev, mode=mode, mtime=self._tick())
        parent.children[name] = node
        return node

    def truncate(self, path: str, size: int = 0, ctx: OpContext | None = None) -> None:
        node = self._resolve(path)
        if node.is_dir:
            raise IsADirectory(path)
        node.data = node.data[:size]
        node.mtime = self._tick()

    def chmod(self, path: str, mode: int, ctx: OpContext | None = None) -> None:
        node = self._resolve(path)
        node.mode = mode
        node.mtime = self._tick()

    def chown(self, path: str, uid: int, gid: int, ctx: OpContext | None = None) -> None:
        node = self._resolve(path)
        node.uid, node.gid = uid, gid
        node.mtime = self._tick()

    # -- convenience -----------------------------------------------------

    def populate(self, tree: Dict[str, object], base: str = "/") -> None:
        """Build a subtree from a nested dict.

        ``{"etc": {"passwd": b"root:x:0:0"}, "empty": {}}`` creates a
        directory ``etc`` containing file ``passwd`` and an empty directory.
        String values are encoded as UTF-8.
        """
        for name, value in tree.items():
            path = join_path(base, name)
            if isinstance(value, dict):
                if not self.exists(path):
                    self.mkdir(path)
                self.populate(value, path)
            else:
                data = value.encode() if isinstance(value, str) else bytes(value)
                if not self.exists(parent_path(path)):
                    self.mkdir(parent_path(path), parents=True)
                self.write(path, data)

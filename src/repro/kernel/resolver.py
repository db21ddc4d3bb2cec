"""Path resolution: process view -> (filesystem, fs-internal path).

This is where chroot, mount tables, symlinks, and the XCL namespace meet.
Every syscall funnels through :func:`resolve`, so the XCL exclusion check
(paper Section 5.6) cannot be bypassed by renaming, bind-mounting, or
chrooting around a protected subtree: resolution always terminates at the
same ``(fsid, fspath)`` identity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.errors import ExclusionViolation, FileNotFound, TooManySymlinks
from repro.kernel.mount import Mount
from repro.kernel.vfs import Inode, OpContext, join_path, normalize_path, split_path

_SYMLINK_LIMIT = 40


@dataclass
class ResolvedPath:
    """Outcome of resolving one path.

    Attributes:
        fs: the governing filesystem (superblock) — possibly an ITFS wrapper.
        fspath: path inside ``fs``.
        vpath: the path in the *caller's* (post-chroot) view.
        ns_path: the path in mount-namespace coordinates (pre-chroot).
        mount: the winning mount-table entry.
        node: the inode, or None when ``must_exist=False`` and the final
            component is absent (create-style calls).
    """

    fs: object
    fspath: str
    vpath: str
    ns_path: str
    mount: Mount
    node: Optional[Inode]

    @property
    def exists(self) -> bool:
        return self.node is not None


def _view_to_ns(root: str, view_path: str) -> str:
    """Prefix the chroot root onto a view path."""
    if root == "/":
        return view_path
    return join_path(root, view_path)


def resolve(proc, path: str, *, follow_symlinks: bool = True,
            must_exist: bool = True, check_xcl: bool = True,
            ctx: OpContext | None = None) -> ResolvedPath:
    """Resolve ``path`` as seen by ``proc``.

    Walks component by component so intermediate symlinks and mountpoint
    crossings behave like Linux. Absolute symlink targets re-anchor at the
    process root (chroot-confined, as on real systems).

    Raises:
        FileNotFound: a component is missing (or the final one, when
            ``must_exist``).
        TooManySymlinks: symlink chain exceeded the loop limit.
        ExclusionViolation: the target falls in the caller's XCL table.
    """
    if not path.startswith("/"):
        path = join_path(proc.cwd, path)
    table = proc.namespaces.mnt.table
    comps = deque(split_path(path))
    view = "/"
    hops = 0
    node: Optional[Inode] = None
    # Resolve the root itself (e.g. open("/")).
    mount, fs, fspath, node = _lookup(table, proc, view, ctx)
    while comps:
        comp = comps.popleft()
        if comp == "." or comp == "..":  # from a relative symlink target
            cand_view = join_path(view, comp)
        else:  # ``view`` is normal, so one plain component just appends
            cand_view = view + comp if view == "/" else view + "/" + comp
        mount, fs, fspath, node = _lookup(table, proc, cand_view, ctx)
        if node is None:
            if comps or must_exist:
                raise FileNotFound(cand_view)
            view = cand_view
            break
        if node.is_symlink and (follow_symlinks or comps):
            hops += 1
            if hops > _SYMLINK_LIMIT:
                raise TooManySymlinks(path)
            target = node.target
            if target.startswith("/"):
                view = "/"
                comps.extendleft(reversed(split_path(target)))
            else:
                # relative: resolved against the symlink's directory (= view)
                comps.extendleft(reversed([c for c in target.split("/") if c]))
            node = None
            continue
        view = cand_view
    if node is None and must_exist:
        raise FileNotFound(path)
    ns_path = _view_to_ns(proc.root, view)
    if node is None:
        # Recompute mount/fs for the (missing) final component's location.
        mount = table.find(ns_path)
        fs = mount.fs
        fspath = mount.translate(ns_path)
    if check_xcl and proc.namespaces.xcl.excludes(_real_fsid(fs), _real_fspath(fs, fspath)):
        raise ExclusionViolation(f"{view} is excluded by XCL namespace "
                                 f"{proc.namespaces.xcl.nsid}")
    return ResolvedPath(fs=fs, fspath=fspath, vpath=view, ns_path=ns_path,
                        mount=mount, node=node)


def _lookup(table, proc, view_path: str, ctx):
    """Find (mount, fs, fspath, inode-or-None) for one view path."""
    ns_path = _view_to_ns(proc.root, view_path)
    mount = table.find(ns_path)
    fspath = mount.translate(ns_path)
    try:
        node = mount.fs.lookup(fspath, ctx)
    except FileNotFound:
        node = None
    return mount, mount.fs, fspath, node


def _real_fsid(fs) -> int:
    """Identity of the *backing* filesystem (see through ITFS wrappers)."""
    backing = getattr(fs, "backing_fs", None)
    return _real_fsid(backing) if backing is not None else fs.fsid


def _real_fspath(fs, fspath: str) -> str:
    """Translate an fs-internal path through ITFS wrappers to the backing fs."""
    backing = getattr(fs, "backing_fs", None)
    if backing is None:
        return normalize_path(fspath)
    translated = fs.translate_to_backing(fspath)
    return _real_fspath(backing, translated)

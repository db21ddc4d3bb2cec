"""Mount tables, bind mounts, and the MNT namespace.

Reproduces the structures of paper Figure 5: the host's mounted-filesystem
table, the perforated container's table (rooted at an ITFS mountpoint), and
the longest-prefix resolution that routes each file operation to the right
superblock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import FileNotFound, InvalidArgument, ResourceBusy
from repro.kernel.namespaces import Namespace, NamespaceKind
from repro.kernel.vfs import Filesystem, is_subpath, normalize_path


@dataclass
class Mount:
    """One entry of a mounted-filesystem table.

    Attributes:
        fs: the superblock providing the subtree.
        mountpoint: where it appears in this namespace's view (normalized).
        fs_subpath: which subtree of ``fs`` is mounted here — ``/`` for a
            whole-filesystem mount, deeper for bind mounts.
        source: human-readable source label (``/dev/sda``, ``itfs``, ...).
        flags: mount options such as ``ro``.
    """

    fs: Filesystem
    mountpoint: str
    fs_subpath: str = "/"
    source: str = ""
    flags: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        self.mountpoint = normalize_path(self.mountpoint)
        self.fs_subpath = normalize_path(self.fs_subpath)
        if not self.source:
            self.source = self.fs.label

    def translate(self, vpath: str) -> str:
        """Map a namespace-visible path under this mount to an fs-internal path."""
        vpath = normalize_path(vpath)
        mountpoint = self.mountpoint
        # mountpoint and fs_subpath are normal, so ``rest`` is "" or "/a/b"
        if mountpoint == "/":
            rest = vpath if vpath != "/" else ""
        elif vpath == mountpoint or vpath.startswith(mountpoint + "/"):
            rest = vpath[len(mountpoint):]
        else:
            raise InvalidArgument(f"{vpath} is not under mountpoint {mountpoint}")
        if self.fs_subpath == "/":
            return rest or "/"
        return self.fs_subpath + rest

    def entry(self) -> Tuple[str, str, str]:
        """``(source, mountpoint, fstype)`` — the paper's Figure 5 row format."""
        return (self.source, self.mountpoint, self.fs.fstype)


class MountTable:
    """An ordered collection of mounts with longest-prefix lookup."""

    def __init__(self, mounts: Optional[List[Mount]] = None):
        self._mounts: List[Mount] = list(mounts or [])

    def __iter__(self):
        return iter(self._mounts)

    def __len__(self) -> int:
        return len(self._mounts)

    def add(self, mount: Mount) -> None:
        """Register ``mount``; later mounts shadow earlier ones at equal depth."""
        self._mounts.append(mount)

    def remove(self, mountpoint: str) -> Mount:
        """Unmount the most recent mount at ``mountpoint``.

        Raises:
            FileNotFound: nothing is mounted there.
            ResourceBusy: another mount lives below this mountpoint.
        """
        mountpoint = normalize_path(mountpoint)
        for i in range(len(self._mounts) - 1, -1, -1):
            if self._mounts[i].mountpoint == mountpoint:
                for other in self._mounts:
                    if other is not self._mounts[i] and other.mountpoint != mountpoint \
                            and is_subpath(other.mountpoint, mountpoint):
                        raise ResourceBusy(f"{other.mountpoint} is mounted below {mountpoint}")
                return self._mounts.pop(i)
        raise FileNotFound(f"no mount at {mountpoint}")

    def find(self, vpath: str) -> Mount:
        """Return the mount governing ``vpath`` (longest prefix, latest wins).

        Raises:
            FileNotFound: the table has no mount covering ``vpath`` (no root
                mount).
        """
        vpath = normalize_path(vpath)
        best: Optional[Mount] = None
        best_len = -1
        for mount in self._mounts:  # later mounts shadow earlier, equal-depth ones
            mountpoint = mount.mountpoint  # normal since Mount.__post_init__
            if mountpoint == "/" or vpath == mountpoint \
                    or vpath.startswith(mountpoint + "/"):
                depth = len(mountpoint)
                if depth >= best_len:
                    best, best_len = mount, depth
        if best is None:
            raise FileNotFound(f"no filesystem mounted over {vpath}")
        return best

    def entries(self) -> List[Tuple[str, str, str]]:
        """All table rows as ``(source, mountpoint, fstype)`` tuples."""
        return [m.entry() for m in self._mounts]

    def restore(self, mounts: List[Mount]) -> None:
        """Reset the table to exactly ``mounts``, in place.

        In-place matters: every process sharing this MNT namespace holds a
        reference to the same table object, so the container pool's
        scrub-on-release must rewrite the list this object owns rather
        than swap in a new table.
        """
        self._mounts[:] = list(mounts)

    def copy(self) -> "MountTable":
        """A shallow copy: new table, same superblocks (CLONE_NEWNS semantics)."""
        return MountTable([Mount(fs=m.fs, mountpoint=m.mountpoint,
                                 fs_subpath=m.fs_subpath, source=m.source,
                                 flags=m.flags) for m in self._mounts])


class MountNamespace(Namespace):
    """A MNT namespace: one process-group-visible mount table."""

    kind = NamespaceKind.MNT

    def __init__(self, table: Optional[MountTable] = None,
                 parent: Optional[Namespace] = None):
        super().__init__(parent)
        self.table = table if table is not None else MountTable()

    def clone(self) -> "MountNamespace":
        """CLONE_NEWNS: the child gets a *copy* of the parent's table."""
        return MountNamespace(table=self.table.copy(), parent=self)

"""Oracle properties: the syscall hot path equals the straightforward code.

``normalize_path`` returns already-normal paths unchanged, mounts compare
normal paths directly, ``resolve`` extends its view by concatenation and
``ps`` lists the PID namespace without an intermediate dict. The
functions below are the plain versions those replaced, kept verbatim as
reference oracles: every property demands equal results, equal
exceptions, and — for ``resolve`` — the same ``fs.lookup`` calls in the
same order, since ITFS audits each of them under ``log_meta``.
"""

from collections import deque
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    ExclusionViolation,
    FileNotFound,
    InvalidArgument,
    TooManySymlinks,
)
from repro.itfs import ITFS, AppendOnlyLog, PolicyManager
from repro.kernel import Kernel, MemoryFilesystem, NamespaceKind
from repro.kernel.mount import Mount, MountTable
from repro.kernel.process import ProcessState
from repro.kernel.resolver import ResolvedPath, resolve
from repro.kernel.vfs import is_subpath, join_path, normalize_path

# -- reference oracles ---------------------------------------------------


def oracle_normalize_path(path):
    if not path:
        raise InvalidArgument("empty path")
    parts = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if parts:
                parts.pop()
            continue
        parts.append(part)
    return "/" + "/".join(parts)


def oracle_split_path(path):
    norm = oracle_normalize_path(path)
    if norm == "/":
        return []
    return norm[1:].split("/")


def oracle_join_path(base, *parts):
    return oracle_normalize_path("/".join([base, *parts]))


def oracle_is_subpath(path, prefix):
    path = oracle_normalize_path(path)
    prefix = oracle_normalize_path(prefix)
    if prefix == "/":
        return True
    return path == prefix or path.startswith(prefix + "/")


def oracle_translate(mount, vpath):
    vpath = oracle_normalize_path(vpath)
    if not oracle_is_subpath(vpath, mount.mountpoint):
        raise InvalidArgument(f"{vpath} is not under mountpoint {mount.mountpoint}")
    rest = vpath[len(mount.mountpoint):] if mount.mountpoint != "/" else vpath
    return oracle_join_path(mount.fs_subpath, rest)


def oracle_find(table, vpath):
    vpath = oracle_normalize_path(vpath)
    best = None
    best_len = -1
    for mount in table:
        if oracle_is_subpath(vpath, mount.mountpoint):
            depth = len(mount.mountpoint)
            if depth >= best_len:
                best, best_len = mount, depth
    if best is None:
        raise FileNotFound(f"no filesystem mounted over {vpath}")
    return best


def _oracle_view_to_ns(root, view_path):
    if root == "/":
        return view_path
    return oracle_join_path(root, view_path)


def _oracle_lookup(table, proc, view_path, ctx):
    ns_path = _oracle_view_to_ns(proc.root, view_path)
    mount = oracle_find(table, ns_path)
    fspath = oracle_translate(mount, ns_path)
    try:
        node = mount.fs.lookup(fspath, ctx)
    except FileNotFound:
        node = None
    return mount, mount.fs, fspath, node


def _oracle_real_fsid(fs):
    backing = getattr(fs, "backing_fs", None)
    return _oracle_real_fsid(backing) if backing is not None else fs.fsid


def _oracle_real_fspath(fs, fspath):
    backing = getattr(fs, "backing_fs", None)
    if backing is None:
        return oracle_normalize_path(fspath)
    translated = oracle_join_path(fs.backing_subpath, fspath)
    return _oracle_real_fspath(backing, translated)


def oracle_resolve(proc, path, *, follow_symlinks=True, must_exist=True,
                   check_xcl=True, ctx=None):
    if not path.startswith("/"):
        path = oracle_join_path(proc.cwd, path)
    table = proc.namespaces.mnt.table
    comps = deque(oracle_split_path(path))
    view = "/"
    hops = 0
    mount, fs, fspath, node = _oracle_lookup(table, proc, view, ctx)
    while comps:
        comp = comps.popleft()
        cand_view = oracle_join_path(view, comp)
        mount, fs, fspath, node = _oracle_lookup(table, proc, cand_view, ctx)
        if node is None:
            if comps or must_exist:
                raise FileNotFound(cand_view)
            view = cand_view
            break
        if node.is_symlink and (follow_symlinks or comps):
            hops += 1
            if hops > 40:
                raise TooManySymlinks(path)
            target = node.target
            if target.startswith("/"):
                view = "/"
                comps.extendleft(reversed(oracle_split_path(target)))
            else:
                comps.extendleft(reversed([c for c in target.split("/") if c]))
            node = None
            continue
        view = cand_view
    if node is None and must_exist:
        raise FileNotFound(path)
    ns_path = _oracle_view_to_ns(proc.root, view)
    if node is None:
        mount = oracle_find(table, ns_path)
        fs = mount.fs
        fspath = oracle_translate(mount, ns_path)
    if check_xcl and proc.namespaces.xcl.excludes(
            _oracle_real_fsid(fs), _oracle_real_fspath(fs, fspath)):
        raise ExclusionViolation(f"{view} is excluded by XCL namespace "
                                 f"{proc.namespaces.xcl.nsid}")
    return ResolvedPath(fs=fs, fspath=fspath, vpath=view, ns_path=ns_path,
                        mount=mount, node=node)


def oracle_ps(proc):
    pid_ns = proc.namespaces.pid
    visible = {pid: p for pid, p in pid_ns.processes.items() if p.alive}
    rows = []
    for local_pid, p in sorted(visible.items()):
        rows.append({"pid": local_pid, "comm": p.comm,
                     "state": p.state.value, "uid": p.creds.uid})
    return rows


# -- strategies ------------------------------------------------------------

NAMES = ("a", "b")
raw_path = st.one_of(st.text(alphabet="/.ab", max_size=30), st.text(max_size=12))
# normal paths over a tiny alphabet, so prefixes, equal mountpoints and
# sibling names like /a vs /ab collide often
normal_path = st.lists(st.sampled_from(("a", "b", "ab")), max_size=3).map(
    lambda comps: "/" + "/".join(comps))
# symlink targets and lookup paths: '.', '..' and empty components included
messy_path = st.lists(st.sampled_from(NAMES + ("ab", ".", "..", "")),
                      min_size=1, max_size=5).map("/".join)


def _outcome(fn, *args, **kwargs):
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # compared by type and message
        return ("raise", type(exc), str(exc))


def _key(result):
    if result[0] != "ok":
        return result
    value = result[1]
    if isinstance(value, ResolvedPath):
        return ("ok", id(value.fs), value.fspath, value.vpath, value.ns_path,
                id(value.mount), id(value.node))
    return result


# -- path algebra --------------------------------------------------------


class TestNormalizeOracle:
    @given(raw_path)
    @example("")
    @example("/")
    @example("//")
    @example("/a//b")
    @example("/./a")
    @example("/a/./b")
    @example("/a/../b")
    @example("/../a")
    @example("/a/.")
    @example("/a/..")
    @example("/a/")
    @example("/...")
    @example("/a/.../b")
    @example("/.a")
    @example("/a/..b")
    @example("a/b")
    @example(".")
    def test_normalize_matches_oracle(self, path):
        assert _outcome(normalize_path, path) == _outcome(oracle_normalize_path, path)

    @given(raw_path, raw_path)
    def test_join_and_subpath_match_oracle(self, a, b):
        assert _outcome(join_path, "/" + a, b) == \
            _outcome(oracle_join_path, "/" + a, b)
        assert _outcome(is_subpath, "/" + a, "/" + b) == \
            _outcome(oracle_is_subpath, "/" + a, "/" + b)

    @given(normal_path)
    def test_normal_input_is_returned_unchanged(self, path):
        assert normalize_path(path) is path


# -- mount tables ----------------------------------------------------------

mount_spec = st.tuples(normal_path, normal_path, st.integers(0, 2))


def _table(specs, filesystems):
    table = MountTable([Mount(fs=filesystems[0], mountpoint="/")])
    for mountpoint, fs_subpath, fs_index in specs:
        table.add(Mount(fs=filesystems[fs_index], mountpoint=mountpoint,
                        fs_subpath=fs_subpath))
    return table


class TestMountOracle:
    @settings(max_examples=200)
    @given(st.lists(mount_spec, max_size=5), st.lists(messy_path, min_size=1,
                                                       max_size=6),
           st.booleans())
    def test_find_and_translate_match_oracle(self, specs, vpaths, rootless):
        filesystems = [MemoryFilesystem() for _ in range(3)]
        table = _table(specs, filesystems)
        if rootless:  # no root mount: paths outside every mount raise
            table = MountTable(list(table)[1:])
        for raw in vpaths:
            vpath = "/" + raw
            got = _outcome(table.find, vpath)
            want = _outcome(oracle_find, table, vpath)
            if got[0] == "ok":
                assert want[0] == "ok" and got[1] is want[1]
            else:
                assert got == want
            for mount in table:
                assert _outcome(mount.translate, vpath) == \
                    _outcome(oracle_translate, mount, vpath)


# -- resolve ---------------------------------------------------------------


class SpyFilesystem(MemoryFilesystem):
    """A memory filesystem that records every ``lookup`` path."""

    def __init__(self, calls, label):
        super().__init__(label=label)
        self._calls = calls

    def lookup(self, path, ctx=None):
        self._calls.append((self.label, path))
        return super().lookup(path, ctx)


tree_entry = st.tuples(
    st.lists(st.sampled_from(NAMES), min_size=1, max_size=3),
    st.one_of(st.just(None), st.just(b"x"), messy_path,
              messy_path.map(lambda p: "/" + p)))


def _populate(fs, entries):
    """Directories for ``None``, files for bytes, symlinks for str targets."""
    for comps, kind in entries:
        for depth in range(1, len(comps)):
            prefix = "/" + "/".join(comps[:depth])
            if not fs.exists(prefix):
                try:
                    fs.mkdir(prefix)
                except Exception:
                    break  # a file or symlink is in the way
        path = "/" + "/".join(comps)
        try:
            if kind is None:
                fs.mkdir(path)
            elif isinstance(kind, bytes):
                fs.write(path, kind)
            else:
                fs.symlink(path, kind)
        except Exception:
            pass  # already exists, or a non-directory parent


def _resolve_rig(calls, entries, specs, wrap):
    filesystems = [SpyFilesystem(calls, f"fs{i}") for i in range(3)]
    for fs in filesystems:  # same tree everywhere: paths hit symlinks often
        _populate(fs, entries)
    mounted = list(filesystems)
    audits = []
    if wrap is not None:  # fs1 is seen through ITFS, logging every lookup
        audit = AppendOnlyLog()
        audits.append(audit)
        mounted[1] = ITFS(filesystems[1],
                          PolicyManager(log_all=True, log_meta=True),
                          audit=audit, backing_subpath=wrap)
    return _table(specs, mounted), audits


class TestResolveOracle:
    @settings(max_examples=300, deadline=None)
    @given(entries=st.lists(tree_entry, min_size=1, max_size=12),
           specs=st.lists(mount_spec, max_size=3),
           wrap=st.one_of(st.none(), normal_path, st.just("/a/")),
           root=st.one_of(st.just("/"), normal_path, st.just("/a/")),
           cwd=normal_path,
           path=st.one_of(messy_path, messy_path.map(lambda p: "/" + p)),
           excluded=st.one_of(st.none(), normal_path),
           follow=st.booleans(), must_exist=st.booleans())
    # relative targets ending in '.', '..' above a chroot root, and an
    # absolute target with '..' through an ITFS-wrapped bind mount
    @example(entries=[(["b"], None), (["a"], "b/.")], specs=[], wrap=None,
             root="/", cwd="/", path="/a", excluded=None, follow=True,
             must_exist=True)
    @example(entries=[(["a", "b"], None), (["a", "a"], "../../b/..")],
             specs=[], wrap=None, root="/a", cwd="/", path="a/./a",
             excluded=None, follow=True, must_exist=False)
    @example(entries=[(["a", "b"], b"x"), (["b"], "/a/../b/b")],
             specs=[("/b", "/a", 1)], wrap="/a/", root="/", cwd="/b",
             path="b", excluded="/a/a/b", follow=False, must_exist=True)
    def test_resolve_matches_oracle(self, entries, specs, wrap, root, cwd,
                                    path, excluded, follow, must_exist):
        calls = []
        table, audits = _resolve_rig(calls, entries, specs, wrap)
        del calls[:]  # drop the lookups made while populating
        xcl = SimpleNamespace(
            nsid=7, excludes=lambda fsid, fspath: fspath == excluded)
        proc = SimpleNamespace(root=root, cwd=cwd, namespaces=SimpleNamespace(
            mnt=SimpleNamespace(table=table), xcl=xcl))
        kwargs = dict(follow_symlinks=follow, must_exist=must_exist)

        got = _key(_outcome(resolve, proc, path, **kwargs))
        got_calls = list(calls)
        marks = [len(audit) for audit in audits]
        del calls[:]
        want = _key(_outcome(oracle_resolve, proc, path, **kwargs))

        assert got == want
        assert got_calls == calls
        for audit, mark in zip(audits, marks):
            trail = [(r.op, r.path) for r in audit.records]
            assert trail[:mark] == trail[mark:]


# -- ps ----------------------------------------------------------------------


class TestPsOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(
        ("live", "zombie", "dead", "stale"))), min_size=1, max_size=12),
        st.booleans())
    def test_ps_matches_oracle(self, spawns, from_container):
        kernel = Kernel("ps-host", ip="10.0.0.9")
        container = kernel.sys.clone(kernel.init, "containIT",
                                     flags=[NamespaceKind.PID])
        parents = [kernel.init, container]
        for parent_index, fate in spawns:
            parent = parents[parent_index % len(parents)]
            child = kernel.sys.clone(parent, f"p{len(parents)}")
            parents.append(child)
            if fate == "zombie":
                child.die(1)
            elif fate == "dead":
                child.die(9, state=ProcessState.DEAD)
            elif fate == "stale":  # not RUNNING, yet still registered
                child.state = ProcessState.ZOMBIE
        for viewer in (container, kernel.init) if from_container else (kernel.init,):
            assert kernel.sys.ps(viewer) == oracle_ps(viewer)

"""ITFS — the IT File-System (paper Section 5.3).

A pass-through monitoring filesystem, the FUSE analogue of the paper: it
wraps a backing filesystem (typically the host root, or a subtree for
on-line bind mounts), traps every operation, consults the policy manager,
writes audit records, and either forwards the call to the backing
filesystem or raises :class:`~repro.errors.AccessBlocked`.

Visibility is preserved by design: ``lookup``/``stat``/``readdir`` succeed
even on files whose *content* is blocked — "it allows for login of
privileged users but can block access to specific files even if the
contained administrator can see that they exist".
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from repro import obs
from repro.errors import AccessBlocked, FileNotFound
from repro.faults import plane as _faults
from repro.itfs.audit import AppendOnlyLog
from repro.itfs.policy import PolicyManager
from repro.kernel.vfs import (FileType, Filesystem, Inode, OpContext, StatResult,
                              join_path, normalize_path)

#: Default bound on the pass-through decision cache. One entry per
#: (op, path) pair; a long-lived container touching an unbounded working
#: set must not grow ITFS memory forever.
DEFAULT_CACHE_CAPACITY = 1024

#: Operations after which cached decisions for the *same path* are stale
#: because the path's namespace entry changed.
_NAMESPACE_MUTATIONS = frozenset({"unlink", "truncate", "mknod", "create"})

#: Operations after which cached decisions for the path *and every
#: descendant* are stale: renaming or removing a directory moves the whole
#: subtree out from under its cached bpath keys.
_SUBTREE_MUTATIONS = frozenset({"rename", "rmdir"})

#: Operations that rewrite file content in place. When the policy decides
#: by file *head* (signature/content rules), any cached decision for that
#: path — including the one just computed for this very write — describes
#: the old bytes and must die.
_CONTENT_MUTATIONS = frozenset({"write", "truncate"})

#: unique id per ITFS instance so per-mount metric series never collide
_INSTANCE_SEQ = itertools.count(1)


class ITFS(Filesystem):
    """Monitored pass-through filesystem.

    Attributes:
        backing_fs: the filesystem actually holding the data.
        backing_subpath: subtree of ``backing_fs`` this instance exposes
            (``/`` when sharing the whole host root; deeper for the online
            file-sharing bind mounts of Section 5.5).
        policy: the :class:`PolicyManager` consulted on every operation.
        audit: append-only log receiving allow/deny records.
        metrics: the registry all counters/histograms report into
            (defaults to the process-wide shared registry).
    """

    fstype = "fuse.itfs"

    def __init__(self, backing_fs: Filesystem, policy: PolicyManager,
                 audit: Optional[AppendOnlyLog] = None,
                 backing_subpath: str = "/", label: str = "itfs",
                 passthrough: bool = False,
                 cache_capacity: int = DEFAULT_CACHE_CAPACITY,
                 metrics: Optional[obs.MetricsRegistry] = None,
                 tracer: Optional[obs.Tracer] = None):
        super().__init__(label=label)
        self.backing_fs = backing_fs
        self.backing_subpath = backing_subpath
        self.policy = policy
        self.audit = audit if audit is not None else AppendOnlyLog(name=f"{label}-audit")
        #: pass-through read/write (the optimization of Rajgarhia & Gehani
        #: [31] the paper points to): the first read/write of a path pays
        #: the full policy evaluation + audit; repeats ride a decision
        #: cache, invalidated by any namespace or content mutation of that
        #: path (and of whole subtrees on rename/rmdir).
        self.passthrough = passthrough
        if cache_capacity < 1:
            raise ValueError(f"cache_capacity must be >= 1, got {cache_capacity}")
        self.cache_capacity = cache_capacity
        self._decision_cache: "OrderedDict[Tuple[str, str], bool]" = OrderedDict()
        self.metrics = metrics if metrics is not None else obs.registry()
        self.tracer = tracer if tracer is not None else obs.tracer()
        #: identifies this mount's series in the shared registry
        self.instance = f"{label}#{next(_INSTANCE_SEQ)}"

    # ------------------------------------------------------------------
    # metrics: every series lives in the shared registry, labelled by
    # mount instance; the legacy ad-hoc attributes (ops_total, ops_denied,
    # cache_hits) are read-through properties over those series.
    # ------------------------------------------------------------------

    def _count(self, name: str, **labels) -> None:
        self.metrics.counter(name, instance=self.instance, **labels).inc()

    @property
    def ops_total(self) -> int:
        return int(self.metrics.total("itfs_ops_total", instance=self.instance))

    @property
    def ops_denied(self) -> int:
        return int(self.metrics.total("itfs_ops_denied", instance=self.instance))

    @property
    def cache_hits(self) -> int:
        return int(self.metrics.total("itfs_cache_hits", instance=self.instance))

    @property
    def cache_misses(self) -> int:
        return int(self.metrics.total("itfs_cache_misses", instance=self.instance))

    @property
    def cache_evictions(self) -> int:
        return int(self.metrics.total("itfs_cache_evictions", instance=self.instance))

    @property
    def head_loads(self) -> int:
        return int(self.metrics.total("itfs_head_loads", instance=self.instance))

    # ------------------------------------------------------------------

    def translate_to_backing(self, fspath: str) -> str:
        """Map an ITFS-internal path to the backing filesystem path."""
        if self.backing_subpath == "/":
            return normalize_path(fspath)
        return join_path(self.backing_subpath, fspath)

    def _actor(self, ctx: OpContext | None) -> str:
        if ctx is None or ctx.proc is None:
            return "host"
        return f"pid={ctx.pid}:{ctx.comm}"

    def _head_loader(self, bpath: str) -> Callable[[], bytes]:
        size = self.policy.head_bytes_needed() or 16

        def load() -> bytes:
            self._count("itfs_head_loads")
            try:
                return self.backing_fs.read_head(bpath, size)
            except (FileNotFound, Exception):
                return b""
        return load

    # -- decision cache ------------------------------------------------

    def _cache_store(self, key: Tuple[str, str], allowed: bool) -> None:
        cache = self._decision_cache
        if key in cache:
            cache.move_to_end(key)
        cache[key] = allowed
        if len(cache) > self.cache_capacity:
            cache.popitem(last=False)
            self._count("itfs_cache_evictions")
        self.metrics.gauge("itfs_cache_size",
                           instance=self.instance).set(len(cache))

    def _invalidate_path(self, bpath: str) -> None:
        self._decision_cache.pop(("read", bpath), None)
        self._decision_cache.pop(("write", bpath), None)

    def reset_decision_cache(self) -> int:
        """Drop every cached decision; returns how many were dropped.

        The container pool calls this on scrub-on-release: a cached
        allow/deny computed for one tenant must never short-circuit policy
        evaluation for the next.
        """
        dropped = len(self._decision_cache)
        self._decision_cache.clear()
        self.metrics.gauge("itfs_cache_size", instance=self.instance).set(0)
        return dropped

    @property
    def cached_decisions(self) -> int:
        """Current decision-cache population (scrub verification hook)."""
        return len(self._decision_cache)

    def _invalidate_subtree(self, bpath: str) -> None:
        """Drop cached decisions for ``bpath`` and every descendant.

        A directory rename/rmdir changes the meaning of every cached key
        under it — the cache is keyed by full backing path, so only a
        prefix sweep catches the descendants.
        """
        prefix = bpath.rstrip("/") + "/"
        stale = [key for key in self._decision_cache
                 if key[1] == bpath or key[1].startswith(prefix)]
        for key in stale:
            del self._decision_cache[key]
        if stale:
            self.metrics.gauge("itfs_cache_size", instance=self.instance).set(
                len(self._decision_cache))

    # -- the monitor ----------------------------------------------------

    def _check(self, op: str, fspath: str, ctx: OpContext | None) -> str:
        """Evaluate policy; log; raise AccessBlocked on denial.

        Returns the backing path for the caller to forward to.
        """
        start = time.perf_counter()
        bpath = self.translate_to_backing(fspath)
        self._count("itfs_ops_total", op=op)
        cacheable = self.passthrough and op in ("read", "write")
        if cacheable:
            cached = self._decision_cache.get((op, bpath))
            if cached is not None:
                self._decision_cache.move_to_end((op, bpath))
                # outcome label lets audit-agreement checks subtract cached
                # denials, which (by design) skip the audit log
                self._count("itfs_cache_hits",
                            outcome="allow" if cached else "deny")
                self._observe_latency(op, start)
                if _faults.TAPS:
                    _faults.notify(_faults.SITE_ITFS, op=op, path=bpath,
                                   decision="allow" if cached else "deny",
                                   detail=self.label)
                if cached:
                    return bpath
                self._count("itfs_ops_denied", op=op)
                raise AccessBlocked(f"ITFS denied {op} on {bpath}",
                                    rule="passthrough-cache")
            self._count("itfs_cache_misses")
        try:
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.monitor_fault(_faults.SITE_ITFS, op=op,
                                             path=bpath)
            with self.tracer.span("itfs:check", op=op, path=bpath,
                                  fs=self.label) as span:
                head_loader = self._head_loader(bpath) if self.policy.needs_head else None
                decision = self.policy.evaluate(op, bpath, head_loader)
                span.set(allowed=decision.allowed, rule=decision.rule)
        except Exception as exc:
            self._fail_closed(op, bpath, ctx, exc, start)
        if decision.log or not decision.allowed:
            self.audit.append(actor=self._actor(ctx), op=op, path=bpath,
                              decision="deny" if not decision.allowed else "allow",
                              rule=decision.rule)
        if cacheable:
            self._cache_store((op, bpath), decision.allowed)
        if op in _NAMESPACE_MUTATIONS:
            # namespace mutation: drop any stale pass-through decisions
            self._invalidate_path(bpath)
        elif op in _SUBTREE_MUTATIONS:
            # the two rename arguments AND everything below them: renaming
            # a directory moves every descendant path
            self._invalidate_subtree(bpath)
        if op in _CONTENT_MUTATIONS and self.policy.needs_head:
            # content mutation under a head-dependent policy: the bytes the
            # cached decisions were computed from are gone (this also voids
            # the decision cached moments ago for this very write)
            self._invalidate_path(bpath)
        self._observe_latency(op, start)
        if _faults.TAPS:
            _faults.notify(_faults.SITE_ITFS, op=op, path=bpath,
                           decision="allow" if decision.allowed else "deny",
                           detail=self.label)
        if not decision.allowed:
            self._count("itfs_ops_denied", op=op)
            raise AccessBlocked(f"ITFS denied {op} on {bpath}", rule=decision.rule)
        return bpath

    def _fail_closed(self, op: str, bpath: str, ctx: OpContext | None,
                     exc: Exception, start: float) -> None:
        """A monitor that cannot decide must deny, audit, and say so.

        Any failure inside the policy evaluation — an injected
        :class:`~repro.errors.MonitorFault`, a buggy custom rule, a broken
        head loader — becomes an audited denial. Passing the operation
        through on monitor failure would turn every monitor bug into an
        isolation hole. The denial is deliberately *not* cached: the fault
        may be transient, and a later healthy evaluation must get a fresh
        decision.
        """
        self.audit.append(actor=self._actor(ctx), op=op, path=bpath,
                          decision="deny", rule="fail-closed",
                          error=type(exc).__name__)
        self.metrics.counter("fail_closed_denials_total", monitor="itfs",
                             instance=self.instance).inc()
        self._count("itfs_ops_denied", op=op)
        self._observe_latency(op, start)
        raise AccessBlocked(
            f"ITFS monitor failure during {op} on {bpath}; failing closed",
            rule="fail-closed") from exc

    def _observe_latency(self, op: str, start: float) -> None:
        self.metrics.histogram("itfs_op_seconds", op=op).observe(
            time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Filesystem interface — each op is trapped, checked, forwarded.
    # ------------------------------------------------------------------

    def lookup(self, path: str, ctx: OpContext | None = None) -> Inode:
        # visibility op: never denied, optionally logged via policy.log_meta
        bpath = self.translate_to_backing(path)
        if self.policy.log_all and self.policy.log_meta:
            self.audit.append(actor=self._actor(ctx), op="lookup", path=bpath,
                              decision="allow")
        return self.backing_fs.lookup(bpath, ctx)

    def readdir(self, path: str, ctx: OpContext | None = None) -> List[str]:
        bpath = self.translate_to_backing(path)
        if self.policy.log_all and self.policy.log_meta:
            self.audit.append(actor=self._actor(ctx), op="readdir", path=bpath,
                              decision="allow")
        return self.backing_fs.readdir(bpath, ctx)

    def stat(self, path: str, ctx: OpContext | None = None) -> StatResult:
        bpath = self.translate_to_backing(path)
        if self.policy.log_all and self.policy.log_meta:
            self.audit.append(actor=self._actor(ctx), op="stat", path=bpath,
                              decision="allow")
        return self.backing_fs.stat(bpath, ctx)

    def read(self, path: str, ctx: OpContext | None = None) -> bytes:
        bpath = self._check("read", path, ctx)
        return self.backing_fs.read(bpath, ctx)

    def read_head(self, path: str, size: int, ctx: OpContext | None = None) -> bytes:
        bpath = self._check("read", path, ctx)
        return self.backing_fs.read_head(bpath, size, ctx)

    def write(self, path: str, data: bytes, ctx: OpContext | None = None,
              append: bool = False) -> None:
        bpath = self._check("write", path, ctx)
        self.backing_fs.write(bpath, data, ctx, append=append)

    def create(self, path: str, ctx: OpContext | None = None, mode: int = 0o644,
               exist_ok: bool = True) -> Inode:
        bpath = self._check("create", path, ctx)
        return self.backing_fs.create(bpath, ctx, mode=mode, exist_ok=exist_ok)

    def mkdir(self, path: str, ctx: OpContext | None = None, mode: int = 0o755,
              parents: bool = False) -> Inode:
        bpath = self._check("mkdir", path, ctx)
        return self.backing_fs.mkdir(bpath, ctx, mode=mode, parents=parents)

    def unlink(self, path: str, ctx: OpContext | None = None) -> None:
        bpath = self._check("unlink", path, ctx)
        self.backing_fs.unlink(bpath, ctx)

    def rmdir(self, path: str, ctx: OpContext | None = None) -> None:
        bpath = self._check("rmdir", path, ctx)
        self.backing_fs.rmdir(bpath, ctx)

    def rename(self, src: str, dst: str, ctx: OpContext | None = None) -> None:
        bsrc = self._check("rename", src, ctx)
        bdst = self._check("rename", dst, ctx)
        self.backing_fs.rename(bsrc, bdst, ctx)

    def symlink(self, path: str, target: str, ctx: OpContext | None = None) -> Inode:
        bpath = self._check("symlink", path, ctx)
        return self.backing_fs.symlink(bpath, target, ctx)

    def mknod(self, path: str, ftype: FileType, rdev: Tuple[int, int],
              ctx: OpContext | None = None, mode: int = 0o600) -> Inode:
        bpath = self._check("mknod", path, ctx)
        return self.backing_fs.mknod(bpath, ftype, rdev, ctx, mode=mode)

    def truncate(self, path: str, size: int = 0, ctx: OpContext | None = None) -> None:
        bpath = self._check("truncate", path, ctx)
        self.backing_fs.truncate(bpath, size, ctx)

    def chmod(self, path: str, mode: int, ctx: OpContext | None = None) -> None:
        bpath = self._check("chmod", path, ctx)
        self.backing_fs.chmod(bpath, mode, ctx)

    def chown(self, path: str, uid: int, gid: int, ctx: OpContext | None = None) -> None:
        bpath = self._check("chown", path, ctx)
        self.backing_fs.chown(bpath, uid, gid, ctx)

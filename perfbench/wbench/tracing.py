"""Benchmark-owned span wrappers around each layer's public functions.

Nothing in ``src/`` records these spans: :meth:`Recorder.install` swaps
class attributes (and one module function) for thin wrappers before the
plane starts, and :meth:`Recorder.uninstall` puts the originals back.

A span is the list ``[id, parent id, ticket key, name, start, end]``.
The parent is the innermost open span on the same thread. The
ticket key comes from the wrapped call itself where it names one (the
session id of ``serve_traced``, the trail of ``put_trail``), else from the
parent span, else from the thread's context key — the generator sets that
to the ticket's index around its admission calls. Spans stay in memory;
forked workers write theirs to a file when they exit.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple

from repro.broker.client import BrokerClient
from repro.containit.container import PerforatedContainer
from repro.controlplane import procworker
from repro.controlplane.batching import BatchingClassifier
from repro.controlplane.executor import ControlPlane
from repro.controlplane.pool import ContainerPool
from repro.controlplane.serving import ShardServer
from repro.framework.certificates import CertificateAuthority
from repro.framework.classifier import LDAClassifier
from repro.itfs.itfs import ITFS
from repro.kernel.syscalls import SyscallInterface
from repro.kernel.vfs import MemoryFilesystem
from repro.netmon.sniffer import NetworkMonitor
from repro.service import wire
from repro.service.admission import AdmissionController
from repro.service.server import TicketService
from repro.store.sqlite import SQLiteStore

from wbench import workloads

__all__ = ["Recorder", "install_worker_hook"]

KeyOf = Callable[[tuple, dict], Optional[object]]

SYSCALLS = (
    "open", "read_fd", "write_fd", "close", "read_file", "write_file",
    "listdir", "stat", "exists", "mkdir", "unlink", "rmdir", "rename",
    "symlink", "readlink", "truncate", "chmod", "chown", "mknod", "mounts",
    "clone", "kill", "ps", "gethostname", "connect", "net_reachable",
    "net_view", "exit")
FS_OPS = ("lookup", "readdir", "stat", "read", "read_head", "write",
          "create", "mkdir", "unlink", "rmdir", "rename", "symlink",
          "truncate", "chmod", "chown")


def _session_key(args: tuple, kwargs: dict) -> Optional[object]:
    return kwargs.get("session_id")


def _trail_key(args: tuple, kwargs: dict) -> Optional[object]:
    return args[1].session.session_id


#: (owner, attribute, span name, key extractor) for every wrapped function
TARGETS: List[Tuple[object, str, str, Optional[KeyOf]]] = [
    (wire, "parse_ticket_request", "service.parse", None),
    (AdmissionController, "admit", "service.admit", None),
    (TicketService, "submit_batch", "service.submit_batch", None),
    (ControlPlane, "try_submit", "controlplane.try_submit", None),
    (ShardServer, "serve_traced", "controlplane.serve", _session_key),
    (BatchingClassifier, "classify", "controlplane.classify", None),
    (LDAClassifier, "classify", "framework.lda_infer", None),
    (ContainerPool, "acquire", "controlplane.pool_acquire", None),
    (ContainerPool, "release", "controlplane.pool_release", None),
    (CertificateAuthority, "issue", "framework.cert_issue", None),
    (CertificateAuthority, "revoke_ticket", "framework.cert_revoke", None),
    (PerforatedContainer, "login", "containit.login", None),
    (BrokerClient, "call", "broker.call", None),
    (NetworkMonitor, "tap", "netmon.tap", None),
    (SQLiteStore, "put_trail", "store.put_trail", _trail_key),
] + [(SyscallInterface, op, f"kernel.{op}", None) for op in SYSCALLS] \
  + [(ITFS, op, f"itfs.{op}", None) for op in FS_OPS] \
  + [(MemoryFilesystem, op, f"vfs.{op}", None) for op in FS_OPS]


class Recorder:
    """Collects spans from every thread of this process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: (owner, attribute, original or None when it was inherited)
        self._originals: List[Tuple[object, str, object]] = []

    @contextmanager
    def context(self, key: object) -> Iterator[None]:
        """Attribute spans opened on this thread to ``key``."""
        self._local.key = key
        try:
            yield
        finally:
            self._local.key = None

    def _wrap(self, fn: Callable, name: str, key_of: Optional[KeyOf]):
        local = self._local
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            key = key_of(args, kwargs) if key_of is not None else None
            if stack:
                top = stack[-1]
                parent = top[0]
                if key is None:
                    key = top[2]
            else:
                parent = 0
                if key is None:
                    key = getattr(local, "key", None)
            span = [next(ids), parent, key, name, 0.0, 0.0]
            stack.append(span)
            span[4] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
                spans.append(span)
        return wrapper

    def install(self) -> None:
        """Wrap every target (idempotent per recorder)."""
        if self._originals:
            return
        for owner, attr, name, key_of in TARGETS:
            self._originals.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr,
                    self._wrap(getattr(owner, attr), name, key_of))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._originals.clear()


def install_worker_hook(run_dir: Path,
                        recorder: Recorder) -> Callable[[], None]:
    """Make forked shard workers write their samples out on exit.

    The control plane looks ``worker_main`` up on its module when it
    starts workers, so replacing the module attribute is enough. A worker
    inherits the parent's buffers through fork; it clears them first, so
    its file holds only what it recorded itself. Returns the undo.
    """
    original = procworker.worker_main

    def worker_main(*args, **kwargs):
        recorder.spans.clear()
        workloads.COMMAND_SECONDS.clear()
        workloads.PLANTED_DENIED.clear()
        try:
            original(*args, **kwargs)
        finally:
            payload = {"spans": recorder.spans,
                       "commands": workloads.COMMAND_SECONDS,
                       "planted": workloads.PLANTED_DENIED}
            target = run_dir / f"worker-{os.getpid()}.json"
            target.write_text(json.dumps(payload), encoding="utf-8")

    procworker.worker_main = worker_main

    def undo() -> None:
        procworker.worker_main = original
    return undo

"""The three workloads and the benchmark's own session bodies.

A session body receives the admin shell and the broker client of one
served ticket. The bodies here time every admin command they issue. They
run inside shard worker threads or forked worker processes, where module
state is the only thing a picklable body can reach, so the samples live in
module-level lists: the run clears them before it starts measuring, and
worker processes ship their copy back when they exit.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.errors import AccessBlocked
from repro.framework.orchestrator import DEFAULT_SERVICES
from repro.kernel.vfs import FileType, join_path

__all__ = ["COMMAND_SECONDS", "PLANTED_DENIED", "PLANTED_NAME", "ROUNDS",
           "WORKLOADS", "Workload", "admin_session_ops", "nproc",
           "timed_default_ops"]

#: (command, seconds) for every admin command a session body issued
COMMAND_SECONDS: List[Tuple[str, float]] = []
#: one entry per planted out-of-policy access: True when it was refused
PLANTED_DENIED: List[bool] = []

#: a document-class name: the spec's hard constraint must refuse writing it
PLANTED_NAME = "wbench-planted.docx"
#: the file an admin session writes, chmods, reads back and removes
SCRATCH_NAME = ".wbench-scratch"
SCRATCH_BYTES = b"w" * 256

#: steady-window + burst rounds per run: capacity is the best burst, so
#: one slow patch of a shared machine cannot move it
ROUNDS = 5
#: share of a run's seconds spent in steady windows; bursts take the rest
STEADY_SHARE = 0.8


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def _timed(fn: Callable, *args):
    started = time.perf_counter()
    try:
        return fn(*args)
    finally:
        COMMAND_SECONDS.append((fn.__name__, time.perf_counter() - started))


def timed_default_ops(shell, client) -> None:
    """The control plane's default session body, with each command timed."""
    _timed(shell.hostname)
    _timed(client.pb, "ps -a")


def admin_session_ops(shell, client) -> None:
    """Class-dependent admin work inside the container's own shares.

    Lists a share, stats and reads what it holds, then writes, chmods,
    reads back and unlinks a fixed-size scratch file, so writes sit beside
    reads and the file set never grows. Sends two or three broker
    requests, connects to the first allowed service where the class has
    network access, and ends with one planted out-of-policy write that
    ITFS must refuse and audit.
    """
    container = shell.container
    spec = container.spec
    shares = spec.resolved_fs_shares(container.user)
    base = shares[0] if shares else "/tmp"
    for name in sorted(_timed(shell.listdir, base))[:3]:
        path = join_path(base, name)
        if _timed(shell.stat, path).ftype is FileType.REGULAR:
            _timed(shell.read_file, path)
    scratch = join_path(base, SCRATCH_NAME)
    _timed(shell.write_file, scratch, SCRATCH_BYTES)
    _timed(shell.chmod, scratch, 0o600)
    _timed(shell.read_file, scratch)
    _timed(shell.unlink, scratch)
    _timed(client.pb, "ps -a")
    _timed(client.host_info)
    if spec.process_management:
        _timed(client.pb, "hostname")
    services = [label for label in spec.network_allowed
                if label in DEFAULT_SERVICES]
    if services:
        ip, port, _reply = DEFAULT_SERVICES[services[0]]
        connection = _timed(shell.connect, ip, port)
        _timed(connection.send, b"status")
        connection.close()
    try:
        _timed(shell.write_file, join_path(base, PLANTED_NAME), b"exfil")
    except AccessBlocked:
        PLANTED_DENIED.append(True)
    else:
        PLANTED_DENIED.append(False)


@dataclass(frozen=True)
class Workload:
    """One traffic mix: ticket population, worker backend, session body.

    ``rate_tps`` is the steady windows' offered Poisson rate. Steady
    windows take ``STEADY_SHARE`` of the run's seconds; the bursts admit
    ``burst_per_s`` tickets per run second, split over the rounds.
    """

    name: str
    why: str
    duplicate_rate: float
    workers: str
    #: shard count; 0 means one shard per CPU
    shards: int
    ops: Callable
    rate_tps: float
    burst_per_s: float
    planted: bool = False

    def shard_count(self) -> int:
        return self.shards or nproc()

    def window_tickets(self, seconds: float) -> int:
        """Steady tickets per round."""
        return int(round(self.rate_tps * seconds * STEADY_SHARE / ROUNDS))

    def burst_tickets(self, seconds: float) -> int:
        """Burst tickets per round."""
        return int(round(self.burst_per_s * seconds / ROUNDS))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="outage-storm",
        why="duplicate-heavy storm on thread workers: classify hits the "
            "memo, so serving machinery (admission, queue, pool, login, "
            "store) dominates",
        duplicate_rate=0.9, workers="thread", shards=4,
        ops=timed_default_ops, rate_tps=75.0, burst_per_s=200.0),
    Workload(
        name="unique-reports",
        why="distinct reports on process workers, one shard per CPU: one "
            "LDA inference and two envelope hops per ticket dominate",
        duplicate_rate=0.1, workers="process", shards=0,
        ops=timed_default_ops, rate_tps=60.0, burst_per_s=100.0),
    Workload(
        name="admin-sessions",
        why="class-dependent admin work on thread workers: kernel, ITFS, "
            "broker and netmon dominate, trails carry tens of audit rows",
        duplicate_rate=0.9, workers="thread", shards=4,
        ops=admin_session_ops, rate_tps=60.0, burst_per_s=90.0,
        planted=True),
)}

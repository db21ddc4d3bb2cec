"""The bounded ticket-serving executor over the shard fleet.

:class:`ControlPlane` is the front door of the concurrent control plane:
``submit`` routes a ticket to the shard owning its workstation and
enqueues it on that shard's bounded queue (a full queue blocks the
producer — per-shard backpressure), one worker per shard drives the full
Figure 3 session (classify → lease a pooled container → login → session
ops → resolve → scrubbed release), and ``drain`` waits until every
accepted ticket has settled.

One worker per shard is deliberate: a simulated organization is not
internally thread-safe, so the parallelism axis is the *number of
shards*, and within a shard everything stays single-threaded — the same
reasoning real control planes use when they partition state instead of
locking it.

The plane itself is mode-agnostic. It owns admission, the one pending
table (``seq`` → future, admission clock, shard), and the one settle
path: every served ticket comes back through :meth:`ControlPlane._settle`,
which re-stamps latency on the plane's clock, counts the per-ticket
series once, persists the trail (fail-soft) and sets the future. A small
per-mode backend (``workers=`` at construction) only moves envelopes to
a shard, runs control ops, and reports liveness:

* ``"thread"`` — a queue plus a worker thread per shard in this process.
  Cheap to start, shares the classifier memo, but LDA fold-in and ITFS
  signature checks are pure-Python CPU work, so true parallelism is
  capped by the GIL at ~1 core.
* ``"process"`` — one worker *process* per shard. Per-shard state is
  fully partitioned by CRC-32 hostname routing, so each worker
  bootstraps its own organization from a pickled
  :class:`~repro.controlplane.sharding.ShardPlan` and the only traffic
  across the boundary is the envelope protocol of
  :mod:`repro.controlplane.channel`. CPU-bound serving scales with
  cores. A worker that dies mid-ticket is detected by its collector;
  every pending future on its shard fails fast with
  :class:`~repro.errors.WorkerCrashed` (never hangs), the plane stays
  drainable, and ``workers_alive`` flips false so ``/readyz`` goes
  unready.

Everything is observable through :mod:`repro.obs`:
``controlplane_queue_depth`` (gauge, per shard),
``controlplane_session_seconds`` / ``controlplane_ticket_latency_seconds``
(histograms, per shard), ``controlplane_pool_acquires`` /
``controlplane_pool_releases`` (counters; hit rate),
``controlplane_tickets_served`` (counter, per shard and outcome), and
``controlplane_worker_crashes_total``. The per-ticket series are counted
by the settle path alone; process-mode workers accumulate everything else
into a private registry that is folded into the plane scope at exit.
"""

from __future__ import annotations

import dataclasses
import itertools
import queue
import sys
import threading
import time
from concurrent.futures import Future
from multiprocessing.process import BaseProcess
from multiprocessing.queues import Queue as MpQueue
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, Union)

from repro import obs
from repro.api import TicketResult
from repro.broker.policy import BrokerPolicy
from repro.controlplane import procworker
from repro.controlplane._types import ClassifierLike
from repro.controlplane.batching import BatchingClassifier
from repro.controlplane.channel import (
    ControlReply,
    ControlRequest,
    ResultEnvelope,
    TicketEnvelope,
    WorkerExit,
    unmarshal_error,
)
from repro.controlplane.serving import ShardServer, default_session_ops
from repro.controlplane.sharding import ShardRouter
from repro.errors import (
    InvalidArgument,
    ReproError,
    ShuttingDown,
    WorkerCrashed,
)
from repro.framework.classifier import KeywordClassifier
from repro.framework.orchestrator import DEFAULT_MACHINES, DEFAULT_USERS
from repro.store.memory import MemoryStore
from repro.store.protocol import EventStore, SessionTrail

__all__ = ["ControlPlane", "SessionOps", "WORKER_MODES",
           "default_session_ops"]

#: A session body: receives the admin shell and the broker client.
SessionOps = Callable[[object, object], None]

#: End-to-end (admission -> settle) latency buckets: finer than the
#: decade-wide defaults so the histogram supports meaningful percentile
#: reads at storm rates.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, float("inf"))

#: Tickets per queue item in bulk admission: the queue/handoff cost is
#: paid once per chunk instead of once per ticket.
_CHUNK_SIZE = 32

#: How often a producer blocked on a full shard queue re-checks that the
#: shard's worker is still alive.
_POLL = 0.1

#: How long close() waits for a worker process before escalating to
#: terminate(); generous because a worker may be mid-session.
_JOIN_TIMEOUT = 60.0

#: Control-RPC ceiling: covers a cold worker bootstrapping its whole
#: simulated organization before it can answer.
_CONTROL_TIMEOUT = 300.0

#: Process-wide plane ids: every ControlPlane stamps its series with a
#: unique ``plane`` label so co-resident instances never blend metrics.
_PLANE_SEQ = itertools.count(1)

#: A pending-table entry: the future, the admission clock read (``None``
#: for a control op, which is not a ticket), and the shard index.
_Pending = Tuple["Future[Any]", Optional[float], int]

#: Admitted tickets bound for one shard, with their futures.
_Chunk = List[Tuple[TicketEnvelope, "Future[TicketResult]"]]


class _Backend:
    """What differs between worker modes: moving envelopes to a shard,
    running control ops, and reporting liveness."""

    #: True when the shard organizations (and the classifier memo) live
    #: in this process
    in_process = False

    def __init__(self, plane: "ControlPlane") -> None:
        self.plane = plane
        self.queues: Dict[int, Union["queue.Queue[object]",
                                     "MpQueue[object]"]] = {}

    def start(self) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError

    def control(self, op: str, payload: Tuple[object, ...]) -> List[object]:
        raise NotImplementedError

    def alive(self, index: int) -> bool:
        raise NotImplementedError

    def pids(self) -> Dict[int, Optional[int]]:
        return {}

    def put(self, index: int, item: object, block: bool) -> bool:
        """Ship ``item`` to a shard; False when a non-blocking put finds
        the queue full. A blocking put stops waiting once the shard's
        worker is dead: crash handling fails whatever was registered."""
        q = self.queues[index]
        while True:
            try:
                q.put(item, block, _POLL)
                return True
            except queue.Full:
                if not block:
                    return False
                if not self.alive(index):
                    return True

    def depth(self, index: int) -> int:
        q = self.queues.get(index)
        try:
            return q.qsize() if q is not None else 0
        except NotImplementedError:  # pragma: no cover - macOS sem_getvalue
            return -1


class _ThreadBackend(_Backend):
    """A queue plus a worker thread per shard, in this process."""

    in_process = True

    def __init__(self, plane: "ControlPlane") -> None:
        super().__init__(plane)
        self.threads: Dict[int, threading.Thread] = {}
        for shard in plane.router.shards:
            self.queues[shard.index] = queue.Queue(maxsize=plane._queue_depth)

    def start(self) -> None:
        # shorter GIL slices keep the producer responsive while workers
        # grind through CPU-bound sessions; restored on stop
        self._switchinterval = sys.getswitchinterval()
        sys.setswitchinterval(0.005)
        for shard in self.plane.router.shards:
            server = ShardServer(shard, self.plane.classifier)
            worker = threading.Thread(
                target=self._work, args=(server, self.queues[shard.index]),
                name=f"shard-{shard.index}", daemon=True)
            self.threads[shard.index] = worker
            worker.start()

    def _work(self, server: ShardServer, q: "queue.Queue[object]") -> None:
        index = server.shard.index
        while True:
            envelopes = q.get()
            if envelopes is None:
                return
            self.plane._set_depth(index)
            assert isinstance(envelopes, list)
            for env in envelopes:
                try:
                    result, trail = server.serve_traced(
                        env.reporter, env.text, env.machine, env.admin,
                        env.ops, session_id=env.session_id, org_name=env.org)
                except BaseException as exc:  # noqa: BLE001 - boundary
                    # in-process callers get the raw exception
                    self.plane._settle(env.seq, error=exc)
                else:
                    self.plane._settle(env.seq, result, trail=trail)

    def stop(self) -> None:
        for q in self.queues.values():
            q.put(None)
        for worker in self.threads.values():
            worker.join()
        sys.setswitchinterval(self._switchinterval)

    def control(self, op: str, payload: Tuple[object, ...]) -> List[object]:
        return [procworker._handle_control(shard, op, payload)
                for shard in self.plane.router.shards]

    def alive(self, index: int) -> bool:
        worker = self.threads.get(index)
        return worker is not None and worker.is_alive()


class _WorkerProc:
    """Parent-side handle for one shard worker process."""

    __slots__ = ("process", "submit_q", "result_q", "collector")

    def __init__(self, process: BaseProcess, submit_q: "MpQueue[object]",
                 result_q: "MpQueue[object]") -> None:
        self.process = process
        self.submit_q = submit_q
        self.result_q = result_q
        self.collector: Optional[threading.Thread] = None


class _ProcessBackend(_Backend):
    """One worker process per shard, each answered by a collector thread."""

    def __init__(self, plane: "ControlPlane") -> None:
        super().__init__(plane)
        self.procs: Dict[int, _WorkerProc] = {}

    def start(self) -> None:
        import multiprocessing as mp

        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        plane = self.plane
        for plan in plane.router.plans:
            submit_q: "MpQueue[object]" = ctx.Queue(
                maxsize=plane._queue_depth)
            result_q: "MpQueue[object]" = ctx.Queue()
            process = ctx.Process(
                target=procworker.worker_main,
                args=(plan, plane._users, plane._pool_size,
                      plane._base_classifier, plane._broker_policy,
                      plane.plane_id, submit_q, result_q),
                name=f"{plane.plane_id}-shard-{plan.index}", daemon=True)
            self.queues[plan.index] = submit_q
            self.procs[plan.index] = _WorkerProc(process, submit_q, result_q)
            process.start()
        for index, wp in self.procs.items():
            wp.collector = threading.Thread(
                target=self._collect, args=(index, wp),
                name=f"collector-{index}", daemon=True)
            wp.collector.start()

    def stop(self) -> None:
        for q in self.queues.values():
            try:
                q.put_nowait(None)
            except queue.Full:
                # drain() emptied the pending table, so a full queue is a
                # dead worker's backlog that crash handling already failed
                pass
        for wp in self.procs.values():
            wp.process.join(timeout=_JOIN_TIMEOUT)
            if wp.process.is_alive():
                wp.process.terminate()
                wp.process.join(timeout=10)
            if wp.collector is not None:
                wp.collector.join(timeout=_JOIN_TIMEOUT)
            # never let a queue feeder thread block interpreter exit on
            # a pipe nobody will read again
            for q in (wp.submit_q, wp.result_q):
                q.cancel_join_thread()
                q.close()

    def control(self, op: str, payload: Tuple[object, ...]) -> List[object]:
        """Run one control op on every live worker; collect the answers."""
        futures: List["Future[object]"] = []
        for index in self.procs:
            if not self.alive(index):
                continue
            seq, future = next(self.plane._seq), Future[Any]()
            if self.plane._register(index, [(seq, future, None)]) is None:
                self.put(index, ControlRequest(req_id=seq, op=op,
                                               payload=payload), block=True)
                futures.append(future)
        return [future.result(timeout=_CONTROL_TIMEOUT)
                for future in futures]

    def alive(self, index: int) -> bool:
        wp = self.procs.get(index)
        return wp is not None and wp.process.is_alive()

    def pids(self) -> Dict[int, Optional[int]]:
        return {index: wp.process.pid for index, wp in self.procs.items()}

    def _collect(self, index: int, wp: _WorkerProc) -> None:
        """Drain one worker's result queue; detect its death.

        Exits on the worker's :class:`WorkerExit` goodbye (clean path,
        metrics folded back) or after crash handling (dirty path). The
        poll timeout doubles as the liveness check interval.
        """
        while True:
            try:
                item = wp.result_q.get(timeout=_POLL)
            except queue.Empty:
                if not wp.process.is_alive():
                    self._on_death(index, wp)
                    return
                continue
            if isinstance(item, WorkerExit):
                obs.registry().fold(item.metrics)
                return
            self._deliver(item)

    def _deliver(self, item: object) -> None:
        if isinstance(item, ControlReply):
            seq, value, trail = item.req_id, item.value, None
        else:
            assert isinstance(item, ResultEnvelope)
            seq, value, trail = item.seq, item.result, item.trail
        error = None if item.error is None else unmarshal_error(item.error)
        self.plane._settle(seq, value, error=error, trail=trail)

    def _on_death(self, index: int, wp: _WorkerProc) -> None:
        """Fail-closed cleanup after a worker died without a goodbye."""
        # give results already in the pipe a moment to surface, then
        # fail everything that will never be answered; the blocking get
        # parks on the queue's internal condition instead of sleep-polling
        deadline = time.perf_counter() + 0.25
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            try:
                item = wp.result_q.get(timeout=remaining)
            except queue.Empty:
                break
            except (OSError, EOFError):
                # queue torn down with the dead worker: nothing more can
                # ever arrive, so waiting out the deadline is pointless
                break
            if not isinstance(item, WorkerExit):
                self._deliver(item)
        exitcode = wp.process.exitcode
        self.plane.metrics.counter("controlplane_worker_crashes_total",
                                   shard=index).inc()
        self.plane._fail_pending(WorkerCrashed(
            f"shard {index} worker process died (exitcode {exitcode})",
            shard=index, exitcode=exitcode), shard=index)


#: worker mode -> backend; the plane's only per-mode decision
_BACKENDS: Dict[str, Type[_Backend]] = {
    "thread": _ThreadBackend, "process": _ProcessBackend}

WORKER_MODES = tuple(_BACKENDS)


class ControlPlane:
    """Multi-tenant ticket-serving over N shards with pooled containers."""

    def __init__(self, machines: Sequence[str] = DEFAULT_MACHINES,
                 users: Sequence[str] = DEFAULT_USERS,
                 shards: int = 4, pool_size: int = 2,
                 queue_depth: int = 64,
                 classifier: Optional[ClassifierLike] = None,
                 broker_policy: Optional[BrokerPolicy] = None,
                 workers: str = "thread",
                 store: Optional[EventStore] = None,
                 org: str = "default") -> None:
        if queue_depth < 1:
            raise InvalidArgument(
                f"queue depth must be >= 1, got {queue_depth}")
        backend = _BACKENDS.get(workers)
        if backend is None:
            raise InvalidArgument(
                f"workers must be one of {WORKER_MODES}, got {workers!r}")
        #: worker mode: "thread" or "process"
        self.workers = workers
        #: durable event store; every served ticket's trail lands here.
        #: The default MemoryStore keeps pre-store semantics (history dies
        #: with the process) while making every plane uniformly queryable.
        self.store: EventStore = store if store is not None else MemoryStore()
        #: tenant label stamped on every session/ticket row
        self.org = org
        #: store boot epoch (minted in start()); part of every session id
        #: so ids never collide across restarts on the same database
        self.boot = 0
        #: unique per-instance metric scope (the ``plane`` label)
        self.plane_id = f"plane-{next(_PLANE_SEQ)}"
        self.metrics = obs.registry().scoped(plane=self.plane_id)
        self.classifier = BatchingClassifier(classifier or KeywordClassifier(),
                                             registry=self.metrics)
        self._queue_depth = queue_depth
        #: worker-process bootstrap material (must survive pickling under
        #: a spawn start method; under fork it is simply inherited)
        self._base_classifier = classifier
        self._users = tuple(users)
        self._pool_size = pool_size
        self._broker_policy = broker_policy
        self.router = ShardRouter(machines, shards, users=users,
                                  pool_capacity=pool_size,
                                  classifier=self.classifier,
                                  broker_policy=broker_policy,
                                  registry=self.metrics,
                                  build=backend.in_process)
        self._started = False
        self._closed = False
        self._lock = threading.Lock()
        #: admissions between the closed-check and the enqueue; close()
        #: waits for this to reach zero before it may stop the workers,
        #: so no ticket is ever enqueued *behind* the shutdown sentinel
        self._admitting = 0
        self._quiesced = threading.Condition(self._lock)
        self.submitted = 0
        self.completed = 0
        #: per-ticket envelope and control-op sequence (the pending key)
        self._seq = itertools.count(1)
        #: seq -> (future, admission clock, shard); guarded by _lock
        self._pending: Dict[int, _Pending] = {}
        #: entries taken out of _pending whose futures are being set;
        #: drain() waits for these too
        self._settling = 0
        self._drained = threading.Condition(self._lock)
        #: crashed shard -> the error its futures fail with; guarded by _lock
        self._dead: Dict[int, ReproError] = {}
        #: admin/user registrations issued before start(); run on start
        self._deferred: List[Tuple[str, Tuple[object, ...]]] = []
        self._depth_gauges = {
            plan.index: self.metrics.gauge("controlplane_queue_depth",
                                           shard=plan.index)
            for plan in self.router.plans}
        self._backend: _Backend = backend(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ControlPlane":
        if self._started:
            return self
        self._started = True
        # a fresh boot epoch per start: session ids minted by this plane
        # are unique across every restart against the same store
        self.boot = self.store.begin_boot()
        self._backend.start()
        for op, payload in self._deferred:
            self._backend.control(op, payload)
        self._deferred.clear()
        return self

    def prewarm(self, ticket_classes: Sequence[str],
                count: Optional[int] = None) -> int:
        """Warm pools for ``ticket_classes`` on every shard's machines."""
        if not self._started:
            raise InvalidArgument("prewarm needs started workers")
        return sum(sum(int(v) for v in self._control(
                       "prewarm", (cls, count)))
                   for cls in ticket_classes)

    def drain(self) -> None:
        """Block until every accepted ticket has settled."""
        with self._drained:
            self._drained.wait_for(
                lambda: not self._pending and not self._settling)

    def close(self) -> None:
        """Graceful shutdown: drain, stop workers, tear down pools.

        Admission and close coordinate under the plane lock: ``close``
        flips ``_closed`` (so no new admission can pass the gate), then
        waits out admissions already past the gate before draining and
        stopping the workers — so no future is ever enqueued *behind* a
        shutdown sentinel. Any future still pending after the workers
        stop fails with :class:`ShuttingDown` rather than hanging its
        waiter; a crashed worker's futures were already failed with
        :class:`WorkerCrashed`, so ``drain`` terminates either way.
        """
        with self._quiesced:
            if self._closed:
                return
            self._closed = True
            while self._admitting:
                self._quiesced.wait()
        if self._started:
            self.drain()
            self._backend.stop()
            self._fail_pending(ShuttingDown(
                "control plane closed before the request was served"))
        self.router.close()
        # checkpoint (not close) the store: callers routinely query the
        # trail history after the plane itself has shut down
        self.store.flush()

    def workers_alive(self) -> bool:
        """True when every shard worker is running (readiness feed)."""
        return all(self._backend.alive(plan.index)
                   for plan in self.router.plans)

    def crashed_shards(self) -> List[int]:
        """Shard indexes whose worker process died (process mode)."""
        with self._lock:
            return sorted(self._dead)

    def worker_pids(self) -> Dict[int, Optional[int]]:
        """Shard index -> worker process pid (process mode only)."""
        return self._backend.pids()

    def stats(self) -> Dict[str, object]:
        """A point-in-time lifecycle snapshot (the service readiness feed)."""
        with self._lock:
            submitted, completed = self.submitted, self.completed
        return {
            "plane": self.plane_id,
            "workers": self.workers,
            "started": self._started,
            "closed": self._closed,
            "submitted": submitted,
            "completed": completed,
            "inflight": submitted - completed,
            "workers_alive": self.workers_alive(),
            "crashed_shards": self.crashed_shards(),
            "shards": len(self.router.plans),
            "queue_depths": {plan.index: self._backend.depth(plan.index)
                             for plan in self.router.plans},
            # process-mode pools live inside the worker processes; a live
            # count would need an RPC per stats() call, so it is not
            # reported there
            "pool_idle": (sum(shard.pool.idle_count()
                              for shard in self.router.shards)
                          if self._backend.in_process else None),
        }

    def __enter__(self) -> "ControlPlane":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def register_admin(self, name: str) -> None:
        self._control("register_admin", (name,))

    def register_user(self, name: str) -> None:
        self._control("register_user", (name,))

    def _control(self, op: str, payload: Tuple[object, ...]) -> List[object]:
        """Run a control op on every shard; deferred until start()."""
        if self._closed:
            raise InvalidArgument("control plane is closed")
        if not self._started:
            self._deferred.append((op, payload))
            return []
        return self._backend.control(op, payload)

    def _begin_admission(self) -> None:
        """Pass the admission gate; pairs with :meth:`_end_admission`.

        The closed-check and the in-flight admission count move together
        under the plane lock: once :meth:`close` flips ``_closed`` no new
        admission passes, and close itself waits for the count to reach
        zero — so every admitted ticket is enqueued strictly before the
        shutdown sentinel.
        """
        with self._lock:
            if self._closed:
                raise InvalidArgument("control plane is closed")
            if not self._started:
                raise InvalidArgument("control plane is not started")
            self._admitting += 1

    def _end_admission(self, accepted: int) -> None:
        with self._quiesced:
            self._admitting -= 1
            self.submitted += accepted
            if self._admitting == 0:
                self._quiesced.notify_all()

    def _envelope(self, reporter: str, text: str, machine: str, admin: str,
                  ops: Optional[SessionOps],
                  org: Optional[str] = None) -> TicketEnvelope:
        """One envelope, with its own admission clock read (never shared
        per chunk — chunked admission must not skew latency percentiles).

        The session id is minted here, at admission: it embeds the store's
        boot epoch, so a restarted plane over the same database can never
        collide with sessions persisted by an earlier life.
        """
        seq = next(self._seq)
        org = org if org is not None else self.org
        return TicketEnvelope(seq=seq, reporter=reporter,
                              text=text, machine=machine, admin=admin,
                              ops=ops, enqueued_at=time.perf_counter(),
                              org=org,
                              session_id=f"{org}-b{self.boot}-{seq}")

    def submit(self, reporter: str, text: str, machine: str, admin: str,
               ops: Optional[SessionOps] = None,
               org: Optional[str] = None) -> "Future[TicketResult]":
        """Route + enqueue one ticket; blocks when the shard is backlogged."""
        futures, _accepted = self._admit([(reporter, text, machine)], admin,
                                         ops, org, block=True)
        return futures[0]

    def submit_many(self, tickets: Sequence[Tuple[str, str, str]], admin: str,
                    ops: Optional[SessionOps] = None,
                    org: Optional[str] = None) -> List["Future[TicketResult]"]:
        """Bulk admission: route, pre-classify, and enqueue a whole storm.

        ``tickets`` is a sequence of ``(reporter, text, machine)``. Tickets
        are enqueued in per-shard chunks, so the queue/handoff cost is paid
        once per chunk instead of once per ticket; each envelope still
        records its *own* admission timestamp. With in-process (thread)
        workers the storm is pre-classified in one :meth:`classify_batch`
        pass (one inference per unique text, shared memo); process-mode
        workers each memoize their own shard's texts instead — that is
        exactly the CPU work the fork exists to parallelize. Returns one
        future per ticket, in submission order.
        """
        if self._backend.in_process:
            self.classify_batch([text for _, text, _ in tickets])
        futures, _accepted = self._admit(tickets, admin, ops, org,
                                         block=True)
        return futures

    def try_submit(self, reporter: str, text: str, machine: str, admin: str,
                   ops: Optional[SessionOps] = None,
                   org: Optional[str] = None
                   ) -> Optional["Future[TicketResult]"]:
        """Non-blocking submit: None when the shard queue is full."""
        futures, accepted = self._admit([(reporter, text, machine)], admin,
                                        ops, org, block=False)
        if not accepted and not futures[0].done():
            return None  # queue full: backpressure, not failure
        return futures[0]

    def _admit(self, tickets: Sequence[Tuple[str, str, str]], admin: str,
               ops: Optional[SessionOps], org: Optional[str], block: bool
               ) -> Tuple[List["Future[TicketResult]"], int]:
        """Route and enqueue ``tickets`` in per-shard chunks; returns one
        future per ticket and how many tickets were accepted."""
        self._begin_admission()
        accepted = 0
        futures: List["Future[TicketResult]"] = []
        chunks: Dict[int, _Chunk] = {}
        try:
            for reporter, text, machine in tickets:
                index = self.router.route_index(machine)
                env = self._envelope(reporter, text, machine, admin, ops,
                                     org=org)
                future: "Future[TicketResult]" = Future()
                futures.append(future)
                chunk = chunks.setdefault(index, [])
                chunk.append((env, future))
                if len(chunk) >= _CHUNK_SIZE:
                    accepted += self._enqueue(index, chunk, block)
                    chunks[index] = []
            for index, chunk in chunks.items():
                if chunk:
                    accepted += self._enqueue(index, chunk, block)
        finally:
            self._end_admission(accepted)
        for index in chunks:
            self._set_depth(index)
        return futures, accepted

    def _enqueue(self, index: int, chunk: _Chunk, block: bool) -> int:
        """Register the chunk's futures, then ship its envelopes; returns
        how many tickets were accepted.

        Registration happens *before* the put so a fast worker can never
        settle a seq the pending table does not hold yet. A shard whose
        worker crashed fails the chunk fast with :class:`WorkerCrashed`
        instead of queueing it for a consumer that no longer exists.
        """
        error = self._register(index, [(env.seq, future, env.enqueued_at)
                                       for env, future in chunk])
        if error is not None:
            for _env, future in chunk:
                future.set_exception(error)
            return 0
        if self._backend.put(index, [env for env, _ in chunk], block):
            return len(chunk)
        # queue full: take back whatever crash handling has not failed
        with self._drained:
            taken = sum(self._pending.pop(env.seq, None) is not None
                        for env, _ in chunk)
            if not self._pending and not self._settling:
                self._drained.notify_all()
        self.metrics.counter("controlplane_rejected_total",
                             shard=index).inc()
        return len(chunk) - taken

    def classify_batch(self, texts: Sequence[str]) -> List[str]:
        """Bulk pre-classification (one inference per unique text)."""
        return self.classifier.classify_batch(texts)

    def _set_depth(self, index: int) -> None:
        gauge = self._depth_gauges.get(index)
        if gauge is not None:
            gauge.set(self._backend.depth(index))

    # ------------------------------------------------------------------
    # the pending table: register, settle, fail
    # ------------------------------------------------------------------

    def _register(self, index: int,
                  entries: Sequence[Tuple[int, "Future[Any]",
                                          Optional[float]]]
                  ) -> Optional[ReproError]:
        """Enter futures in the pending table unless their shard crashed
        (then return the crash error; nothing is registered)."""
        with self._lock:
            error = self._dead.get(index)
            if error is None:
                for seq, future, clock in entries:
                    self._pending[seq] = (future, clock, index)
        return error

    def _settle(self, seq: int, value: object = None,
                error: Optional[BaseException] = None,
                trail: object = None) -> None:
        """The one settle path for ticket results and control replies.

        A served ticket's latency is re-read on this process's clock
        (admission to settle), its per-ticket series are counted here and
        nowhere else, and its trail is persisted before its future is
        set. A worker's view of the boot epoch and the admission clock
        never reaches the store.
        """
        with self._lock:
            entry = self._pending.pop(seq, None)
            if entry is None:
                return  # already failed: its shard crashed or plane closed
            self._settling += 1
        future, clock, index = entry
        if error is None and clock is not None:
            assert isinstance(value, TicketResult)
            value = dataclasses.replace(value,
                                        latency_s=time.perf_counter() - clock)
            self._count(value, index)
            if trail is not None:
                self._put_trail(trail, value)
        if not future.done():
            if error is None:
                future.set_result(value)
            else:
                future.set_exception(error)
        self._done([entry])

    def _fail_pending(self, error: ReproError,
                      shard: Optional[int] = None) -> None:
        """Fail every pending future — a crashed shard's (which stays
        dead: later admissions fail at once), or all of them at close —
        so none is ever stranded."""
        with self._lock:
            if shard is not None:
                self._dead[shard] = error
            doomed = [seq for seq, (_f, _c, index) in self._pending.items()
                      if shard is None or index == shard]
            entries = [self._pending.pop(seq) for seq in doomed]
            self._settling += len(entries)
        for future, _clock, _index in entries:
            if not future.done():
                future.set_exception(error)
        self._done(entries)

    def _done(self, entries: List[_Pending]) -> None:
        with self._drained:
            self._settling -= len(entries)
            self.completed += sum(clock is not None
                                  for _f, clock, _i in entries)
            if not self._pending and not self._settling:
                self._drained.notify_all()

    def _count(self, result: TicketResult, index: int) -> None:
        """Count one served ticket's per-ticket series in the plane scope."""
        # looked up per ticket, not cached: the registry may be reset in
        # place (test and run boundaries), which would strand a handle
        outcome = "resolved" if result.resolved else "errored"
        self.metrics.counter("controlplane_tickets_served",
                             shard=index, outcome=outcome).inc()
        self.metrics.histogram("controlplane_session_seconds",
                               shard=index).observe(result.duration_s)
        self.metrics.histogram("controlplane_ticket_latency_seconds",
                               buckets=LATENCY_BUCKETS,
                               shard=index).observe(result.latency_s)
        if result.pool_hit is not None:
            self.metrics.counter(
                "controlplane_pool_acquires",
                outcome="hit" if result.pool_hit else "miss").inc()

    def _put_trail(self, trail: object, result: TicketResult) -> None:
        """Persist one session trail, stamped with this plane's boot epoch
        and the re-read latency.

        The plane owns the single store connection, so store writes are
        single-writer even with N worker processes. A store failure must
        never kill the worker or collector thread settling the ticket —
        it is counted, not raised: a sick store degrades forensics, never
        serving.
        """
        assert isinstance(trail, SessionTrail)
        stamped = dataclasses.replace(
            trail, session=dataclasses.replace(
                trail.session, boot=self.boot, latency_s=result.latency_s))
        try:
            self.store.put_trail(stamped)
        except Exception:  # noqa: BLE001 - settling must survive
            self.metrics.counter("controlplane_store_errors_total").inc()

    # ------------------------------------------------------------------

    def pool_hit_rate(self) -> float:
        """Warm-lease fraction for *this* plane's pools only.

        The series carry this plane's ``plane`` label, so two co-resident
        control planes report independent rates instead of blending each
        other's acquire counters through the process-global registry. The
        settle path counts every lease as its ticket settles, in both
        worker modes, so the rate is live.
        """
        hits = self.metrics.total("controlplane_pool_acquires",
                                  outcome="hit")
        misses = self.metrics.total("controlplane_pool_acquires",
                                    outcome="miss")
        total = hits + misses
        return hits / total if total else 0.0

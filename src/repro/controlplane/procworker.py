"""The process-mode shard worker: an organization in its own process.

Per-shard state is fully partitioned by CRC-32 hostname routing, so a
shard needs nothing from the parent but its :class:`ShardPlan` — the
worker bootstraps its *own* simulated organization, container pool, and
classifier memo inside the child process, and the only traffic across
the process boundary is the pickled envelope protocol of
:mod:`repro.controlplane.channel`.

Every served ticket's result and trail ride back on a
:class:`ResultEnvelope` to the parent, whose one settle path counts the
per-ticket series, persists the trail, and sets the future — exactly as
it does for thread-mode workers.

Metrics discipline: the worker accumulates its own series (classifier
memo, pool lifecycle, kernel/ITFS) into a **private**
:class:`~repro.obs.MetricsRegistry` (under ``fork`` the global registry
is a copy of the parent's — reporting there would double-count at
fold-back time) and ships a snapshot in its :class:`WorkerExit` goodbye;
the parent folds it into the plane-scoped view.

Control ops (:func:`_handle_control`) are the same function the thread
backend calls in-process; here they arrive as :class:`ControlRequest`\\ s.

Failure posture is fail-closed end to end: any exception escaping a
session is marshalled as a typed error envelope (never a raw pickle of
an errno-tagged exception), and a worker that dies without a goodbye is
detected by the parent's collector, which fails every pending future of
its shard with :class:`~repro.errors.WorkerCrashed`.
"""

from __future__ import annotations

from multiprocessing.queues import Queue as MpQueue
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.broker.policy import BrokerPolicy
from repro.controlplane._types import ClassifierLike
from repro.controlplane.channel import (
    ControlReply,
    ControlRequest,
    ResultEnvelope,
    TicketEnvelope,
    WorkerExit,
    marshal_error,
)
from repro.controlplane.sharding import KernelShard, ShardPlan

if TYPE_CHECKING:
    from repro.controlplane.serving import ShardServer

__all__ = ["worker_main"]


def _handle_control(shard: KernelShard, op: str,
                    payload: Tuple[object, ...]) -> object:
    """Execute one control op against one shard's own organization."""
    from repro.framework.tickets import Role

    if op == "prewarm":
        ticket_class, count = payload
        return shard.prewarm(str(ticket_class),
                             count=None if count is None else int(count))
    if op == "register_admin":
        (name,) = payload
        shard.org.register_admin(str(name))
        return True
    if op == "register_user":
        (name,) = payload
        shard.org.tickets.register_person(str(name), Role.END_USER)
        return True
    raise ValueError(f"unknown control op {op!r}")


def worker_main(plan: ShardPlan, users: Sequence[str], pool_capacity: int,
                classifier: Optional[ClassifierLike],
                broker_policy: Optional[BrokerPolicy], plane_id: str,
                submit_q: "MpQueue[object]",
                result_q: "MpQueue[object]") -> None:
    """Entry point of one shard worker process.

    Builds the shard organization, then serves the submit queue until the
    ``None`` shutdown sentinel arrives; every dequeued chunk is answered
    envelope-for-envelope on the result queue, so the parent can account
    for every admitted ticket even across a crash. The durable store
    never crosses the process boundary: trails ride back on the result
    envelopes, which keeps store writes single-writer.
    """
    from repro.controlplane.batching import BatchingClassifier
    from repro.controlplane.serving import ShardServer
    from repro.framework.classifier import KeywordClassifier
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    scoped = registry.scoped(plane=plane_id)
    batching = BatchingClassifier(classifier or KeywordClassifier(),
                                  registry=scoped)
    shard: Optional[KernelShard] = None
    server: Optional["ShardServer"] = None
    try:
        shard = KernelShard(plan.index, plan.machines, users=tuple(users),
                            pool_capacity=pool_capacity,
                            classifier=batching,
                            broker_policy=broker_policy, registry=scoped)
        server = ShardServer(shard, batching)
        while True:
            item = submit_q.get()
            if item is None:
                break
            if isinstance(item, ControlRequest):
                try:
                    value = _handle_control(shard, item.op, item.payload)
                    result_q.put(ControlReply(req_id=item.req_id,
                                              shard=plan.index, value=value))
                except BaseException as exc:  # noqa: BLE001 - boundary
                    result_q.put(ControlReply(req_id=item.req_id,
                                              shard=plan.index,
                                              error=marshal_error(exc)))
                continue
            for env in item:
                result_q.put(_serve_envelope(server, plan.index, env))
    finally:
        if shard is not None:
            try:
                shard.close()
            except Exception:  # noqa: BLE001 - shutdown best effort
                pass
        result_q.put(WorkerExit(shard=plan.index,
                                metrics=registry.snapshot()))
        result_q.close()


def _serve_envelope(server: ShardServer, shard_index: int,
                    env: TicketEnvelope) -> ResultEnvelope:
    """Serve one envelope; exceptions become typed error envelopes."""
    try:
        result, trail = server.serve_traced(
            env.reporter, env.text, env.machine, env.admin, env.ops,
            session_id=env.session_id, org_name=env.org)
        return ResultEnvelope(seq=env.seq, shard=shard_index, result=result,
                              trail=trail)
    except BaseException as exc:  # noqa: BLE001 - marshalling boundary
        return ResultEnvelope(seq=env.seq, shard=shard_index,
                              error=marshal_error(exc))

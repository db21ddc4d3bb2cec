"""Pickle-safe envelopes for the process-mode submit/result channel.

Thread-mode shard workers share the parent's heap, so the executor can
hand them futures and raw exceptions. Process-mode workers only see what
survives :mod:`pickle` on a :class:`multiprocessing.Queue` — this module
defines exactly that wire surface:

* :class:`TicketEnvelope` — one admitted ticket. Futures never cross the
  boundary; the parent keys them by ``seq`` and the worker echoes the
  ``seq`` back on every result.
* :class:`ResultEnvelope` — a :class:`~repro.api.TicketResult` or a
  :class:`MarshalledError`, never a raw exception: the errno-style
  constructors in :mod:`repro.errors` prepend their ``[ERRNO]`` tag to
  ``args``, so default exception pickling would re-prefix on every hop.
  :func:`marshal_error`/:func:`unmarshal_error` round-trip the *typed*
  taxonomy instead.
* :class:`ControlRequest`/:class:`ControlReply` — the small RPC surface
  (prewarm, admin/user registration) that thread mode queues, in order
  with its tickets, for its one serving thread.
* :class:`WorkerExit` — the worker's goodbye: a snapshot of its private
  metrics registry for the parent to fold back into the plane-scoped
  :class:`~repro.obs.MetricsRegistry`.

Both ends import this module, so the envelope schema can never skew
between producer and consumer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import errors

__all__ = [
    "ControlRequest",
    "ControlReply",
    "MarshalledError",
    "ResultEnvelope",
    "TicketEnvelope",
    "WorkerExit",
    "marshal_error",
    "unmarshal_error",
]

@dataclass(frozen=True)
class TicketEnvelope:
    """One admitted ticket on the submit channel.

    ``ops`` must be picklable in process mode (a module-level callable or
    ``None`` for :func:`~repro.controlplane.executor.default_session_ops`).
    ``enqueued_at`` is the *per-ticket* producer clock read taken at
    admission — one ``perf_counter`` call per ticket, never one shared
    per chunk, so end-to-end latency percentiles are not skewed by
    chunked admission.

    ``org``/``session_id`` thread the durable-store identity through to
    the worker: the parent mints the session id at admission (it embeds
    the store's boot epoch, so ids never collide across restarts) and
    the worker stamps it on the result and its persisted trail. Both
    default for pickle-compatibility with pre-store envelopes.
    """

    seq: int
    reporter: str
    text: str
    machine: str
    admin: str
    ops: Optional[Callable[[object, object], None]]
    enqueued_at: float
    org: str = "default"
    session_id: Optional[str] = None
    target_machine: Optional[str] = None  # T-9: a second leg, same shard


@dataclass(frozen=True)
class MarshalledError:
    """A typed :mod:`repro.errors` member flattened for the wire."""

    kind: str
    message: str


def marshal_error(exc: BaseException) -> MarshalledError:
    """Flatten any exception into a :class:`MarshalledError`.

    The ``message`` is the *raw* message (``exc.message`` where the
    errno-style constructors keep it) so unmarshalling reconstructs the
    exception through its own constructor without doubling the
    ``[ERRNO]`` prefix.
    """
    message = getattr(exc, "message", None)
    if not isinstance(message, str):
        # an empty-but-present ``message`` must stay empty: falling back
        # to args[0] would pick up the already-prefixed "[ERRNO]" string
        message = str(exc.args[0]) if exc.args else str(exc)
    return MarshalledError(kind=type(exc).__name__, message=message)


def unmarshal_error(marshalled: MarshalledError) -> errors.ReproError:
    """Rebuild the typed taxonomy member a worker marshalled.

    Unknown kinds (a worker bug outside the taxonomy) degrade to a plain
    :class:`~repro.errors.ReproError` carrying the original kind in the
    message — the error is never silently retyped into a success and
    never re-raised as an unpicklable mystery.
    """
    cls = getattr(errors, marshalled.kind, None)
    if not (isinstance(cls, type) and issubclass(cls, errors.ReproError)):
        return errors.ReproError(
            f"{marshalled.kind}: {marshalled.message}")
    if cls is errors.CapabilityError:
        return cls(capability=None, message=marshalled.message)
    try:
        return cls(marshalled.message)
    except TypeError:
        return cls()


@dataclass(frozen=True)
class ResultEnvelope:
    """One served ticket on the result channel: a result XOR an error.

    ``trail`` is the session's :class:`~repro.store.SessionTrail` when it
    was served — the store itself never crosses the process boundary;
    the parent's settle path persists the trail (after re-stamping
    latency on its own clock), which is what makes process workers'
    store writes atomic and single-writer.
    """

    seq: int
    shard: int
    result: Optional[object] = None          # TicketResult when served
    error: Optional[MarshalledError] = None  # marshalled when it raised
    trail: Optional[object] = None           # SessionTrail when served


@dataclass(frozen=True)
class ControlRequest:
    """A non-ticket command on the submit channel (FIFO with tickets)."""

    req_id: int
    op: str                    # "prewarm" | "register_admin" | ...
    payload: Tuple[object, ...] = ()


@dataclass(frozen=True)
class ControlReply:
    """The worker's answer to one :class:`ControlRequest`."""

    req_id: int
    shard: int
    value: object = None
    error: Optional[MarshalledError] = None


@dataclass(frozen=True)
class WorkerExit:
    """Clean-shutdown goodbye: the worker's private metrics snapshot.

    ``metrics`` is a :meth:`~repro.obs.MetricsRegistry.snapshot`; the
    parent folds it into the shared registry so worker-side counters
    (classifier memo rates, pool scrub outcomes, kernel/ITFS series)
    survive the process exit. It holds no per-ticket series: the
    parent's settle path counts those from the result envelopes.
    """

    shard: int
    metrics: List[Dict[str, object]]

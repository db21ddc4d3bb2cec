"""The stable public facade over the WatchIT reproduction.

Three types cover the Figure 3 workflow end to end without exposing the
orchestrator's internals:

* :class:`Deployment` — a simulated organization ready to take tickets.
* :class:`Session` — one ticket-handling session as a context manager:
  entering classifies the ticket, deploys the matching perforated
  container, and logs the administrator in; exiting resolves the ticket
  and tears the container down **even when the block raises**.
* :class:`TicketResult` — the uniform record of what one handled ticket
  produced; the concurrent control plane (:mod:`repro.controlplane`)
  emits the same type, so serial and sharded serving are comparable
  row for row.

Usage::

    from repro import Deployment

    dep = Deployment.create()
    dep.register_admin("it-bob")
    ticket = dep.submit("alice", "matlab license expired", machine="ws-01")
    with dep.session(ticket, admin="it-bob") as session:
        session.shell.read_file("/home/alice/matlab/license.lic")
        session.client.pb("ps -a")
    print(session.result)          # TicketResult(resolved=True, ...)
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.framework.cluster import Deployment as ClusterDeployment
from repro.framework.lifecycle import ClusterSource, TicketSession
from repro.framework.orchestrator import (
    DEFAULT_MACHINES,
    DEFAULT_USERS,
    WatchITDeployment,
)
from repro.framework.tickets import Ticket

if TYPE_CHECKING:
    from repro.anomaly import SessionScore
    from repro.store.protocol import (
        EventStore,
        SessionRow,
        SessionTrail,
    )

__all__ = ["ControlPlane", "Deployment", "EventStore", "MemoryStore",
           "SQLiteStore", "ServiceConfig", "Session", "TicketResult",
           "TicketService"]

#: concurrent-tier names re-exported lazily — those packages import this
#: module (for TicketResult), so an eager import here would cycle
_LAZY_EXPORTS = {
    "TicketService": "repro.service",
    "ServiceConfig": "repro.service",
    "ControlPlane": "repro.controlplane",
    "EventStore": "repro.store",
    "MemoryStore": "repro.store",
    "SQLiteStore": "repro.store",
}


def __getattr__(name):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib
        return getattr(importlib.import_module(module_name), name)
    raise AttributeError(f"module 'repro.api' has no attribute {name!r}")


@dataclass(frozen=True)
class TicketResult:
    """What one handled ticket produced — serial facade or control plane.

    Attributes:
        ticket_id: the ticket's database id.
        ticket_class: predicted class (``T-1`` ... ``T-11``).
        machine: workstation the container ran on.
        admin: administrator who handled the session.
        resolved: the session closed cleanly (tickets whose session body
            raised are still torn down, but report ``resolved=False``).
        error: stringified exception when ``resolved`` is False.
        audit_records: records this session appended across its
            containers' fs/net audit streams and broker logs.
        duration_s: wall-clock session time.
        latency_s: end-to-end admission-to-completion time (queue wait +
            session); equals ``duration_s`` on the serial facade, where
            there is no queue. Measured on a single process's clocks
            even in process-worker mode.
        shard: serving shard index (control plane only).
        pool_hit: the session reused a pre-warmed container (control
            plane only).
        session_id: durable-store key for the session's persisted trail
            (``repro replay <session_id>``); embeds the store's boot
            epoch so it never collides across restarts.
    """

    ticket_id: int
    ticket_class: str
    machine: str
    admin: str
    resolved: bool
    error: Optional[str] = None
    audit_records: int = 0
    duration_s: float = 0.0
    latency_s: float = 0.0
    shard: Optional[int] = None
    pool_hit: Optional[bool] = None
    session_id: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


class Session(TicketSession[ClusterDeployment]):
    """One ticket-handling session (enter = classify+deploy+login).

    Only usable as a context manager; the exit path *always* closes the
    session — certificates revoked, container(s) torn down — whether the
    body completed or raised (then the ticket stays assigned). After exit,
    :attr:`result` carries the :class:`TicketResult`.
    """

    def __init__(self, deployment: "Deployment", ticket: Ticket, admin: str,
                 ttl: Optional[int] = None):
        org = deployment.orchestrator
        super().__init__(org, ticket, admin, ClusterSource(org.cluster),
                         ttl=ttl)
        self._deployment = deployment
        self._started = 0.0
        self.result: Optional[TicketResult] = None
        #: durable-store key; minted on enter, persisted on exit
        self.session_id: Optional[str] = None

    def __enter__(self) -> "Session":
        self._started = time.perf_counter()
        self.session_id = self._deployment._mint_session_id()
        self.org.open(self)
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        deployment = self._deployment
        self.org.resolve(self, exc)
        self.result, trail = self.settle(
            session_id=self.session_id, started=self._started,
            org=deployment.org, boot=deployment.boot)
        deployment.store.put_trail(trail)
        return False  # never swallow the body's exception


class Deployment:
    """A simulated organization ready to take tickets (the facade).

    Wraps :class:`~repro.framework.orchestrator.WatchITDeployment`; the
    underlying orchestrator stays reachable via :attr:`orchestrator` for
    advanced use (LDA training, the cluster manager).

    Every handled session's full trail — session row, ticket, revoked
    certificate, every audit event — lands in :attr:`store` (a
    :class:`~repro.store.MemoryStore` unless one is injected). The store
    is the organization's only audit history: :meth:`sessions`,
    :meth:`session_trail`, :meth:`audit_summary` and
    :meth:`detect_anomalies` all read it, so they work identically
    whether history lives in memory or in the SQLite file behind
    :meth:`open`, and they see every earlier life of that file.
    """

    def __init__(self, orchestrator: WatchITDeployment,
                 store: Optional["EventStore"] = None,
                 org: str = "default"):
        from repro.store.memory import MemoryStore

        self.orchestrator = orchestrator
        self.store: "EventStore" = store if store is not None else MemoryStore()
        self.org = org
        #: store boot epoch: facade session ids stay unique across
        #: restarts over the same database
        self.boot = self.store.begin_boot()
        self._session_seq = itertools.count(1)

    @classmethod
    def create(cls, machines: Tuple[str, ...] = DEFAULT_MACHINES,
               users: Tuple[str, ...] = DEFAULT_USERS,
               classifier=None, broker_policy=None,
               store: Optional["EventStore"] = None,
               org: str = "default") -> "Deployment":
        """Bootstrap a complete organization (hosts, services, TCB boot)."""
        return cls(WatchITDeployment.bootstrap(
            machines=tuple(machines), users=tuple(users),
            classifier=classifier, broker_policy=broker_policy),
            store=store, org=org)

    @classmethod
    def open(cls, path: str, machines: Tuple[str, ...] = DEFAULT_MACHINES,
             users: Tuple[str, ...] = DEFAULT_USERS,
             classifier=None, broker_policy=None,
             org: str = "default") -> "Deployment":
        """Bootstrap an organization persisting into the SQLite file at
        ``path`` (created on first open). History written by earlier
        lives of the deployment is immediately queryable via
        :meth:`sessions` / :meth:`session_trail`."""
        from repro.store.sqlite import SQLiteStore

        return cls.create(machines=machines, users=users,
                          classifier=classifier, broker_policy=broker_policy,
                          store=SQLiteStore(path), org=org)

    @staticmethod
    def control_plane(machines: Tuple[str, ...] = DEFAULT_MACHINES,
                      users: Tuple[str, ...] = DEFAULT_USERS,
                      shards: int = 4, pool_size: int = 2,
                      workers: str = "thread", **kwargs):
        """A concurrent control plane over the same simulated stack.

        ``workers`` selects the shard worker mode: ``"thread"`` (shared
        heap, GIL-capped CPU) or ``"process"`` (one organization per
        worker process, CPU scales with cores; session ``ops`` must be
        module-level callables). Returns an *unstarted*
        :class:`~repro.controlplane.ControlPlane` — use it as a context
        manager or call ``start()``/``close()``.
        """
        from repro.controlplane import ControlPlane

        return ControlPlane(machines=tuple(machines), users=tuple(users),
                            shards=shards, pool_size=pool_size,
                            workers=workers, **kwargs)

    # -- people ------------------------------------------------------------

    def register_admin(self, name: str) -> None:
        self.orchestrator.register_admin(name)

    def register_user(self, name: str) -> None:
        from repro.framework.tickets import Role
        self.orchestrator.tickets.register_person(name, Role.END_USER)

    # -- the ticket workflow ----------------------------------------------

    def submit(self, reporter: str, text: str, machine: str = "ws-01",
               target_machine: Optional[str] = None) -> Ticket:
        """File a trouble ticket (IT personnel are refused)."""
        return self.orchestrator.submit_ticket(
            reporter, text, machine=machine, target_machine=target_machine)

    def session(self, ticket: Ticket, admin: str,
                ttl: Optional[int] = None) -> Session:
        """A context manager handling ``ticket`` as ``admin``."""
        return Session(self, ticket, admin=admin, ttl=ttl)

    def handle(self, ticket: Ticket, admin: str, run=None,
               ttl: Optional[int] = None) -> TicketResult:
        """Convenience: open a session, run ``run(session)``, close it."""
        with self.session(ticket, admin=admin, ttl=ttl) as session:
            if run is not None:
                run(session)
        assert session.result is not None
        return session.result

    # -- the durable history -----------------------------------------------

    def _mint_session_id(self) -> str:
        return f"{self.org}-b{self.boot}-s{next(self._session_seq)}"

    def sessions(self, limit: Optional[int] = None,
                 ticket_class: Optional[str] = None) -> List["SessionRow"]:
        """This org's persisted sessions, newest first."""
        return list(self.store.sessions(org=self.org, limit=limit,
                                        ticket_class=ticket_class))

    def session_trail(self, session_id: str) -> Optional["SessionTrail"]:
        """The full persisted trail of one session (None when unknown)."""
        return self.store.get_trail(session_id)

    def _trails(self) -> Iterator["SessionTrail"]:
        """Every persisted trail of this org, newest first."""
        for row in self.store.sessions(org=self.org):
            trail = self.store.get_trail(row.session_id)
            if trail is not None:
                yield trail

    # -- introspection -----------------------------------------------------

    @property
    def machines(self) -> Tuple[str, ...]:
        return tuple(sorted(self.orchestrator.machines))

    def audit_summary(self) -> Dict[str, object]:
        """Organization-wide audit statistics from the store.

        ``verified`` is True when every stored trail of this org passes
        :func:`~repro.store.replay.verify_trail`.
        """
        from repro.errors import IntegrityError
        from repro.store.replay import verify_trail

        by_decision: Dict[str, int] = {}
        verified = True
        for trail in self._trails():
            for event in trail.events:
                by_decision[event.decision] = \
                    by_decision.get(event.decision, 0) + 1
            try:
                verify_trail(trail)
            except IntegrityError:
                verified = False
        return {"records": sum(by_decision.values()),
                "by_decision": by_decision, "verified": verified}

    def detect_anomalies(self, threshold: float = 6.0) -> List["SessionScore"]:
        """Score every stored session of this org and flag the outliers.

        All sessions form the (assumed mostly benign) baseline — the
        standard unsupervised-deployment posture (§1/§5.4). Each flagged
        score is persisted as a store alert keyed by its session id.
        """
        from repro.anomaly import AnomalyDetector, SessionLog
        from repro.store.protocol import AlertRow

        logs = [SessionLog.from_trail(trail) for trail in self._trails()]
        if not logs:
            return []
        detector = AnomalyDetector(threshold=threshold).fit(logs)
        flagged = [score for score in map(detector.score, logs)
                   if score.anomalous]
        for score in flagged:
            self.store.put_alert(AlertRow(
                rule="anomaly-detector", severity="warning",
                message=(f"session {score.session_id} scored "
                         f"{score.score:.2f} (threshold {threshold})"),
                created_at=time.time(), session_id=score.session_id))
        return flagged

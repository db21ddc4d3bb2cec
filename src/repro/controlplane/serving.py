"""The mode-agnostic shard server: one full Figure 3 session per call.

Thread-mode workers and process-mode workers run the *same* serving code
path — classify → the session lifecycle on pooled leases → session ops
on every leg — via one :class:`ShardServer` per shard, and both hand its
result and trail back to the executor's one settle path. The executor
owns queues, futures, per-ticket metrics, the store, and lifecycle; this
module owns only what happens to a single ticket once a worker picks it
up, so the two worker modes can never drift apart behaviourally.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

from repro.api import TicketResult
from repro.broker import BrokerClient
from repro.containit.container import AdminShell
from repro.controlplane._types import ClassifierLike
from repro.controlplane.sharding import KernelShard
from repro.errors import ReproError
from repro.framework.lifecycle import TicketSession
from repro.store.protocol import SessionTrail

__all__ = ["ShardServer", "default_session_ops"]


def default_session_ops(shell: AdminShell, client: BrokerClient) -> None:
    """The minimal universally-valid session: one syscall, one escalation.

    Valid for every ticket class including the fully-isolated T-11
    catch-all, which has no filesystem shares and no network. Module-level
    (hence picklable) by design: it is the default session body in both
    worker modes.
    """
    shell.hostname()
    client.pb("ps -a")


class ShardServer:
    """Serves tickets end-to-end on one shard (thread or process worker).

    Every served session's full trail — session row, ticket row, revoked
    certificates, every audit event of every leg — is assembled and
    *returned*: the executor persists it from its settle path, which owns
    the single store connection, whichever side of a process boundary the
    server ran on.
    """

    def __init__(self, shard: KernelShard, classifier: ClassifierLike) -> None:
        self.shard = shard
        self.classifier = classifier

    def serve_traced(
            self, reporter: str, text: str, machine: str, admin: str,
            ops: Optional[Callable[[AdminShell, BrokerClient], None]],
            *, session_id: str, org_name: str = "default",
            target_machine: Optional[str] = None,
    ) -> Tuple[TicketResult, SessionTrail]:
        """One full Figure 3 session on pooled containers.

        ``session_id`` is minted by the executor at admission. ``ops``
        runs on every leg of the session, the ticket's machine first, then
        a T-9 ``target_machine`` on this shard. The second return value is
        the session's full :class:`SessionTrail`. The result's
        ``latency_s`` and the trail's ``latency_s``/``boot`` are
        placeholders (the session duration, boot 0): the settle path
        re-stamps them on the executor's clock and boot epoch.
        """
        shard = self.shard
        org = shard.org
        started = time.perf_counter()
        ticket = org.submit_ticket(reporter, text, machine=machine,
                                   target_machine=target_machine)
        ticket.classify_as(self.classifier.classify(text))
        session = TicketSession(org, ticket, admin, shard.pool)
        try:
            with session:
                for leg in session.legs:
                    (ops or default_session_ops)(leg.shell, leg.client)
        except ReproError:
            pass  # the session closed on it: errored, ticket left open
        return session.settle(
            session_id=session_id, started=started, org=org_name, boot=0,
            shard=shard.index,
            pool_hit=session.legs[0].lease.pool_hit if session.legs else None)

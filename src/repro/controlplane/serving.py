"""The mode-agnostic shard server: one full Figure 3 session per call.

Thread-mode workers and process-mode workers run the *same* serving code
path — classify → lease a pooled container → login → session ops →
resolve → scrubbed release — via one :class:`ShardServer` per shard, and
both hand its result and trail back to the executor's one settle path.
The executor owns queues, futures, per-ticket metrics, the store, and
lifecycle; this module owns only what happens to a single ticket once a
worker picks it up, so the two worker modes can never drift apart
behaviourally.
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
from repro.store.protocol import SessionTrail, TrailBuffer, build_trail

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
    certificate, every audit event — is assembled and *returned*: the
    executor persists it from its settle path, which owns the single
    store connection, whichever side of a process boundary the server
    ran on.
    """

    def __init__(self, shard: KernelShard, classifier: ClassifierLike) -> None:
        self.shard = shard
        self.classifier = classifier
        # the pool flushes every rotated-out (and discarded) audit epoch
        # here; trail assembly pops the session's records
        self.trails = TrailBuffer()
        shard.pool.sink = self.trails

    def serve_traced(
            self, reporter: str, text: str, machine: str, admin: str,
            ops: Optional[Callable[[AdminShell, BrokerClient], None]],
            *, session_id: str, org_name: str = "default",
    ) -> Tuple[TicketResult, SessionTrail]:
        """One full Figure 3 session on a pooled container.

        ``session_id`` is minted by the executor at admission. The second
        return value is the session's full :class:`SessionTrail` —
        assembled *after* release, at which point the pool has flushed
        every audit epoch the session produced into the trail buffer.
        The result's ``latency_s`` and the trail's ``latency_s``/``boot``
        are placeholders (the session duration, boot 0): the settle path
        re-stamps them on the executor's clock and boot epoch.
        """
        shard = self.shard
        org = shard.org
        started = time.perf_counter()
        ticket = org.submit_ticket(reporter, text, machine=machine)
        ticket.classify_as(self.classifier.classify(text))
        ticket.assign_to(admin)
        spec = org.images.get(ticket.predicted_class)
        pooled = shard.pool.acquire(spec, machine, user=reporter,
                                    ticket_class=ticket.predicted_class)
        pooled.session_id = session_id
        pool_hit = pooled.pool_hit
        certificate = org.certificates.issue(
            admin, ticket.ticket_id, machine, ticket.predicted_class)
        error: Optional[str] = None
        audit_records = 0
        try:
            shell = pooled.container.login(
                admin, certificate=certificate,
                authenticator=shard.authenticators[machine])
            client = BrokerClient(shell, pooled.deployment.broker,
                                  ticket_class=ticket.predicted_class)
            try:
                (ops or default_session_ops)(shell, client)
            finally:
                audit_records = (len(pooled.container.fs_audit)
                                 + len(pooled.container.net_audit)
                                 + len(pooled.deployment.broker.audit))
                shell.exit()
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            org.certificates.revoke_ticket(ticket.ticket_id)
            shard.pool.release(pooled)
        if error is None:
            # an errored session must NOT transition the org's ticket to
            # resolved — it stays open (assigned) for a retry or triage
            ticket.resolve()
        duration = time.perf_counter() - started
        result = TicketResult(
            ticket_id=ticket.ticket_id,
            ticket_class=ticket.predicted_class or "?",
            machine=machine, admin=admin, resolved=error is None,
            error=error, audit_records=audit_records, duration_s=duration,
            latency_s=duration, shard=shard.index, pool_hit=pool_hit,
            session_id=session_id)
        trail = build_trail(result, ticket, org=org_name, boot=0,
                            certificate=certificate,
                            events=self.trails.pop(session_id))
        return result, trail

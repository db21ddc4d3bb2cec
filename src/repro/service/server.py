"""The persistent service tier: an HTTP front door over the control plane.

WatchIT is an always-on organizational system — tickets arrive
continuously, not as one synthetic storm — so :class:`TicketService`
wraps a :class:`~repro.controlplane.executor.ControlPlane` in a
long-lived, threaded stdlib HTTP server:

* ``POST /tickets`` — submit one ticket (``{"reporter", "text",
  "machine"}``) or a bulk batch (``{"tickets": [...]}``). Admission runs
  per-org token buckets and a global inflight ceiling *before* the
  plane, and maps queue-full ``try_submit`` rejections to ``429 Too
  Many Requests`` with a ``Retry-After`` hint — quota-aware
  backpressure instead of unbounded buffering. ``"wait": true`` blocks
  for the :class:`~repro.api.TicketResult` rows.
* ``GET /healthz`` — liveness: the serving loop is alive.
* ``GET /readyz`` — readiness: started, not draining, every shard
  worker alive, pools warm. Load balancers stop routing on 503 long
  before liveness fails.
* ``GET /metrics`` — the shared :mod:`repro.obs` registry in Prometheus
  text exposition format.
* ``GET /sessions`` (``?org=&limit=``) — persisted session rows from the
  plane's event store, newest first.
* ``GET /sessions/<id>`` — one session's full forensic trail (ticket,
  certificates, every audit decision) with its hash chains re-verified.

Ticket submission speaks the versioned ``watchit-ticket/v1`` wire format
(:mod:`repro.service.wire`); pre-v1 ad-hoc bodies still parse through
the compat shim there.

Shutdown is graceful by construction: :meth:`TicketService.close` stops
admitting (``503`` + ``Retry-After``), drains every accepted ticket
through the plane, then closes the plane and the listener. The CLI's
``repro serve --daemon`` binds that sequence to ``SIGTERM``.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.api import TicketResult
from repro.controlplane.executor import ControlPlane, SessionOps
from repro.errors import InvalidArgument
from repro.service.admission import AdmissionController
from repro.service.exposition import CONTENT_TYPE, render_exposition
from repro.service.wire import (
    TicketRequest,
    TicketResponse,
    WireError,
    parse_ticket_request,
)

__all__ = ["ServiceConfig", "TicketService"]

#: Retry-After hint for queue-full (backpressure) rejections: roughly a
#: few pooled-session durations, so a retry usually finds queue space.
BACKPRESSURE_RETRY_AFTER = 0.1

#: Ceiling on one bulk POST, so a single request cannot monopolize the
#: admission queues no matter what the client sends.
MAX_BULK_TICKETS = 10_000

JsonDict = Dict[str, object]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`TicketService` instance."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (tests); read it back via ``service.port``
    port: int = 0
    #: per-org admission rate in tickets/second; 0 disables rate limiting
    rate_limit: float = 0.0
    #: token-bucket capacity; None defaults to ~one second of rate
    burst: Optional[int] = None
    #: accepted-but-unfinished ceiling across all orgs; 0 = unbounded
    max_inflight: int = 0
    #: admin the session runs as when a request names none
    default_admin: str = "it-duty"
    #: ticket classes to prewarm on every shard before going ready
    prewarm_classes: Tuple[str, ...] = ()
    #: upper bound on one ``"wait": true`` request (seconds)
    wait_timeout: float = 120.0


class _ServiceHTTPServer(ThreadingHTTPServer):
    """Threaded listener; request threads die with the process."""

    daemon_threads = True
    allow_reuse_address = True
    service: "TicketService"


@dataclass
class _SubmitOutcome:
    """What one POST /tickets produced, before rendering."""

    accepted: int = 0
    rejected: int = 0
    futures: List["Future[TicketResult]"] = field(default_factory=list)
    statuses: List[str] = field(default_factory=list)


class TicketService:
    """A persistent daemon serving tickets over HTTP.

    The service can adopt an externally managed plane (it will still
    ``start()`` it if needed) or own one end to end; ``close`` only
    closes the plane when the service started it.
    """

    def __init__(self, plane: ControlPlane,
                 config: Optional[ServiceConfig] = None,
                 default_ops: Optional[SessionOps] = None):
        self.plane = plane
        self.config = config or ServiceConfig()
        self.default_ops = default_ops
        self.admission = AdmissionController(
            rate=self.config.rate_limit, burst=self.config.burst,
            max_inflight=self.config.max_inflight)
        self._httpd: Optional[_ServiceHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started = False
        self._draining = False
        self._closed = False
        self._started_plane = False
        self._pools_warm = not self.config.prewarm_classes
        # series are fetched per-use (never pre-bound): the shared
        # registry may be reset under us at test/run boundaries, and a
        # fresh factory call re-registers while a held reference detaches
        self._metrics = plane.metrics

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "TicketService":
        """Bind, start the plane if needed, prewarm, and go ready."""
        if self._started:
            return self
        if self._closed:
            raise InvalidArgument("service is closed")
        if not self.plane._started:
            self.plane.start()
            self._started_plane = True
        self.plane.register_admin(self.config.default_admin)
        if self.config.prewarm_classes:
            self.plane.prewarm(list(self.config.prewarm_classes))
            self._pools_warm = True
        self._httpd = _ServiceHTTPServer(
            (self.config.host, self.config.port), _Handler)
        self._httpd.service = self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service", daemon=True)
        self._thread.start()
        self._started = True
        return self

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise InvalidArgument("service is not started")
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def ready(self) -> Tuple[bool, JsonDict]:
        """Readiness verdict plus the per-check detail for the body."""
        stats = self.plane.stats()
        checks: JsonDict = {
            "started": self._started,
            "draining": self._draining,
            "workers": stats.get("workers", "thread"),
            "workers_alive": bool(stats["workers_alive"]),
            "crashed_shards": list(stats.get("crashed_shards", ())),
            "pools_warm": self._pools_warm,
        }
        ok = (self._started and not self._draining
              and bool(stats["workers_alive"]) and self._pools_warm)
        checks["ready"] = ok
        return ok, checks

    def drain(self) -> None:
        """Stop admitting, then wait out every accepted ticket."""
        self._draining = True
        self.plane.drain()

    def close(self, drain: bool = True) -> None:
        """Graceful shutdown: drain, stop the listener, close the plane.

        After the drain, the final metrics snapshot is persisted into the
        store's ``bench_runs`` table — previously it evaporated with the
        process, so a gracefully stopped daemon left no record of what it
        served. ``repro history`` renders it alongside benchmark runs.
        """
        if self._closed:
            return
        self._closed = True
        self._draining = True
        if self._started and drain:
            self.plane.drain()
            self._persist_final_metrics()
        if self._httpd is not None:
            self._httpd.shutdown()
            if self._thread is not None:
                self._thread.join()
            self._httpd.server_close()
        if self._started_plane:
            self.plane.close()
        self._started = False

    def _persist_final_metrics(self) -> None:
        """Write the drained service's last metrics into ``bench_runs``."""
        import time

        from repro import obs
        from repro.store.protocol import BenchRunRow

        try:
            stats = self.plane.stats()
            self.plane.store.put_bench_run(BenchRunRow(
                name="service-final-metrics",
                created_at=time.time(),
                params={"plane": self.plane.plane_id,
                        "workers": self.plane.workers,
                        "org": self.plane.org},
                metrics={"submitted": stats["submitted"],
                         "completed": stats["completed"],
                         "inflight": stats["inflight"]},
                artifacts={"metrics_snapshot": obs.registry().snapshot()}))
        except Exception:  # noqa: BLE001 - shutdown must not fail on this
            pass

    def __enter__(self) -> "TicketService":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # submission (called from handler threads)
    # ------------------------------------------------------------------

    def _record_request(self, method: str, path: str, status: int) -> None:
        self._metrics.counter("service_http_requests_total",
                              method=method, path=path,
                              status=status).inc()

    def _record_rejection(self, reason: str, n: int = 1) -> None:
        self._metrics.counter("service_tickets_rejected_total",
                              reason=reason).inc(n)

    def _on_done(self, future: "Future[TicketResult]") -> None:
        self.admission.complete(1)
        self._metrics.gauge("service_inflight").set(self.admission.inflight)
        if future.cancelled():
            outcome = "failed"
        elif future.exception() is not None:
            outcome = "failed"
        else:
            outcome = ("resolved" if future.result().resolved
                       else "errored")
        self._metrics.counter("service_tickets_completed_total",
                              outcome=outcome).inc()

    def submit_batch(self, tickets: List[Tuple[str, ...]],
                     admin: str, org: str) -> _SubmitOutcome:
        """Admit + enqueue a parsed batch; one status per ticket.

        The admission charge is taken up front for the whole batch;
        slots for tickets the plane then bounces (queue full) are
        returned immediately, so backpressure never leaks inflight
        budget.
        """
        outcome = _SubmitOutcome()
        for reporter, text, machine, *target in tickets:
            future = self.plane.try_submit(
                reporter, text, machine, admin, ops=self.default_ops,
                org=org, target_machine=target[0] if target else None)
            if future is None:
                outcome.rejected += 1
                outcome.statuses.append("rejected")
                self.admission.complete(1)
                self._record_rejection("backpressure")
            else:
                outcome.accepted += 1
                outcome.statuses.append("accepted")
                outcome.futures.append(future)
                self._metrics.counter(
                    "service_tickets_accepted_total").inc()
                future.add_done_callback(self._on_done)
        self._metrics.gauge("service_inflight").set(self.admission.inflight)
        return outcome


class _Handler(BaseHTTPRequestHandler):
    """Routes: POST /tickets, GET /healthz | /readyz | /metrics."""

    server: _ServiceHTTPServer
    #: keep persistent connections cheap for pollers and storm clients
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> TicketService:
        return self.server.service

    def log_message(self, format: str, *args: object) -> None:
        """Silence the default stderr access log (metrics cover it)."""

    # -- plumbing ------------------------------------------------------

    def _send(self, status: int, body: bytes, content_type: str,
              extra_headers: Optional[Dict[str, str]] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        route = urlparse(self.path).path
        self.service._record_request(self.command, route, status)

    def _send_json(self, status: int, payload: JsonDict,
                   extra_headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json",
                   extra_headers=extra_headers)

    def _send_retry(self, status: int, payload: JsonDict,
                    retry_after: float) -> None:
        # Retry-After is integer seconds on the wire; never hint 0
        # (clients would hot-loop), and echo the precise value in JSON
        payload["retry_after_s"] = round(retry_after, 3)
        self._send_json(status, payload, extra_headers={
            "Retry-After": str(max(1, int(round(retry_after))))})

    # -- GET routes ----------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        parsed = urlparse(self.path)
        if parsed.path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif parsed.path == "/readyz":
            ok, checks = self.service.ready()
            self._send_json(200 if ok else 503, checks)
        elif parsed.path == "/metrics":
            prefix = parse_qs(parsed.query).get("prefix", [""])[0]
            body = render_exposition(prefix=prefix).encode("utf-8")
            self._send(200, body, CONTENT_TYPE)
        elif parsed.path == "/statz":
            self._send_json(200, dict(self.service.plane.stats()))
        elif parsed.path == "/sessions":
            self._get_sessions(parse_qs(parsed.query))
        elif parsed.path.startswith("/sessions/"):
            self._get_session_trail(parsed.path[len("/sessions/"):])
        else:
            self._send_json(404, {"error": f"no route {parsed.path}"})

    def _get_sessions(self, query: Dict[str, List[str]]) -> None:
        """GET /sessions — persisted session rows, newest first."""
        org = query.get("org", [None])[0]
        raw_limit = query.get("limit", [None])[0]
        limit: Optional[int] = None
        if raw_limit is not None:
            try:
                limit = int(raw_limit)
            except ValueError:
                self._send_json(400, {"error": "limit must be an integer"})
                return
        rows = self.service.plane.store.sessions(org=org, limit=limit)
        self._send_json(200, {"sessions": [row.to_dict() for row in rows]})

    def _get_session_trail(self, session_id: str) -> None:
        """GET /sessions/<id> — the full trail, hash chains re-verified."""
        from repro.errors import IntegrityError
        from repro.store.replay import trail_to_dict, verify_trail

        trail = self.service.plane.store.get_trail(session_id)
        if trail is None:
            self._send_json(404, {"error": f"no session {session_id!r}"})
            return
        try:
            verify_trail(trail)
            verified = True
        except IntegrityError:
            verified = False
        self._send_json(200, trail_to_dict(trail, verified=verified))

    # -- POST /tickets -------------------------------------------------

    def _read_body(self) -> Optional[JsonDict]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
            raw = self.rfile.read(length) if length else b""
            parsed = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError):
            return None
        return parsed if isinstance(parsed, dict) else None

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        service = self.service
        if urlparse(self.path).path != "/tickets":
            self._send_json(404, {"error": f"no route {self.path}"})
            return
        if service._draining:
            service._record_rejection("draining")
            self._send_retry(503, {"error": "service is draining"},
                             retry_after=1.0)
            return
        body = self._read_body()
        if body is None:
            self._send_json(400, {"error": "body must be a JSON object"})
            return
        try:
            request = parse_ticket_request(
                body, service.plane.router.indexes,
                max_tickets=MAX_BULK_TICKETS)
        except WireError as exc:
            self._send_json(400, {
                "error": str(exc),
                "machines": sorted(service.plane.router.machines)})
            return
        # the X-Org header wins over the body field (proxy-injectable)
        org = self.headers.get("X-Org") or request.org
        if org != request.org:
            request = TicketRequest(
                tickets=request.tickets, admin=request.admin, org=org,
                wait=request.wait, single=request.single)

        decision = service.admission.admit(org, len(request.tickets))
        if not decision.admitted:
            service._record_rejection(decision.reason, len(request.tickets))
            self._send_retry(429, {
                "error": "admission rejected",
                "reason": decision.reason,
                "org": org}, retry_after=decision.retry_after)
            return
        try:
            outcome = service.submit_batch(
                request.rows(),
                request.admin or service.config.default_admin, org)
        except InvalidArgument as exc:
            # the plane closed between the draining check and the enqueue
            service.admission.complete(len(request.tickets))
            service._record_rejection("draining", len(request.tickets))
            self._send_retry(503, {"error": str(exc)}, retry_after=1.0)
            return

        if outcome.rejected and not outcome.accepted:
            self._send_retry(429, {
                "error": "queue full",
                "reason": "backpressure",
                "accepted": 0, "rejected": outcome.rejected},
                retry_after=BACKPRESSURE_RETRY_AFTER)
            return

        results: Optional[object] = None
        if request.wait:
            rendered: List[JsonDict] = []
            for future in outcome.futures:
                try:
                    result = future.result(
                        timeout=service.config.wait_timeout)
                    rendered.append(result.to_dict())
                except Exception as exc:  # noqa: BLE001 - rendered to client
                    rendered.append({
                        "error": f"{type(exc).__name__}: {exc}"})
            results = rendered[0] if request.single else rendered
            status = 200
        else:
            status = 202
        payload = TicketResponse(
            accepted=outcome.accepted, rejected=outcome.rejected,
            statuses=tuple(outcome.statuses), results=results).to_dict()
        if outcome.rejected:
            # partial acceptance still pushes back on the client
            self._send_retry(429, payload,
                             retry_after=BACKPRESSURE_RETRY_AFTER)
        else:
            self._send_json(status, payload)

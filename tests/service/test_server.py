"""The HTTP service tier: endpoints, backpressure, readiness, drain."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.controlplane import ControlPlane
from repro.service import ServiceConfig, TicketService

MACHINES = ("ws-01", "ws-02")
USERS = ("alice", "bob")
TEXT = "matlab license expired"


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read().decode()


def _post(url, payload, headers=None):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})})
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read().decode()


def make_service(tmp_factory=None, *, shards=1, pool_size=1, queue_depth=8,
                 workers="thread", default_ops=None, **config_kwargs):
    plane = ControlPlane(machines=MACHINES, users=USERS, shards=shards,
                         pool_size=pool_size, queue_depth=queue_depth,
                         workers=workers)
    config = ServiceConfig(port=0, **config_kwargs)
    return TicketService(plane, config, default_ops=default_ops)


@pytest.fixture(scope="module")
def service():
    svc = make_service(prewarm_classes=("T-1",))
    svc.start()
    yield svc
    svc.close()


class TestEndpoints:
    def test_healthz(self, service):
        status, _, body = _get(service.url + "/healthz")
        assert status == 200 and json.loads(body) == {"status": "ok"}

    def test_readyz_when_serving(self, service):
        status, _, body = _get(service.url + "/readyz")
        checks = json.loads(body)
        assert status == 200
        assert checks["ready"] and checks["workers_alive"]
        assert checks["pools_warm"] and not checks["draining"]

    def test_single_ticket_waited(self, service):
        status, _, body = _post(service.url + "/tickets", {
            "reporter": "alice", "text": TEXT, "machine": "ws-01",
            "wait": True})
        payload = json.loads(body)
        assert status == 200 and payload["accepted"] == 1
        result = payload["results"]
        assert result["resolved"] and result["ticket_class"] == "T-1"
        assert result["machine"] == "ws-01"

    def test_bulk_tickets_accepted(self, service):
        rows = [{"reporter": "bob", "text": TEXT, "machine": m}
                for m in MACHINES * 2]
        status, _, body = _post(service.url + "/tickets",
                                {"tickets": rows, "wait": True})
        payload = json.loads(body)
        assert status == 200
        assert payload["accepted"] == len(rows) and payload["rejected"] == 0
        assert all(r["resolved"] for r in payload["results"])

    def test_fire_and_forget_returns_202(self, service):
        status, _, body = _post(service.url + "/tickets", {
            "reporter": "alice", "text": TEXT, "machine": "ws-02"})
        assert status == 202 and json.loads(body)["accepted"] == 1
        service.plane.drain()

    def test_unknown_machine_is_400(self, service):
        status, _, body = _post(service.url + "/tickets", {
            "reporter": "alice", "text": TEXT, "machine": "ws-99"})
        assert status == 400
        assert "ws-01" in json.loads(body)["machines"]

    def test_malformed_json_is_400(self, service):
        request = urllib.request.Request(
            service.url + "/tickets", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unknown_route_is_404(self, service):
        assert _get(service.url + "/nope")[0] == 404
        assert _post(service.url + "/nope", {})[0] == 404

    def test_metrics_exposition(self, service):
        # the shared registry is reset between tests; generate traffic
        # in-test so the scrape has something to expose
        assert _get(service.url + "/healthz")[0] == 200
        assert _post(service.url + "/tickets", {
            "reporter": "alice", "text": TEXT, "machine": "ws-01",
            "wait": True})[0] == 200
        status, headers, body = _get(service.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "# TYPE service_http_requests_total counter" in body
        assert "service_tickets_accepted_total" in body
        # control-plane series carry this plane's scope label
        assert f'plane="{service.plane.plane_id}"' in body

    def test_metrics_prefix_filter(self, service):
        assert _get(service.url + "/healthz")[0] == 200
        _, _, body = _get(service.url + "/metrics?prefix=service_")
        assert body and all(
            line.startswith(("service_", "# TYPE service_"))
            for line in body.splitlines())


class TestAdmissionOverHTTP:
    def test_rate_limit_maps_to_429_with_retry_after(self):
        svc = make_service(rate_limit=0.001, burst=1).start()
        try:
            ok = _post(svc.url + "/tickets", {
                "reporter": "alice", "text": TEXT, "machine": "ws-01",
                "wait": True})
            assert ok[0] == 200
            status, headers, body = _post(svc.url + "/tickets", {
                "reporter": "alice", "text": TEXT, "machine": "ws-01"})
            payload = json.loads(body)
            assert status == 429 and payload["reason"] == "rate_limit"
            assert int(headers["Retry-After"]) >= 1
            # the rejection is visible in the exposition
            _, _, metrics = _get(svc.url + "/metrics")
            assert 'service_tickets_rejected_total{' in metrics
            assert 'reason="rate_limit"' in metrics
        finally:
            svc.close()

    def test_orgs_are_limited_independently(self):
        svc = make_service(rate_limit=0.001, burst=1).start()
        try:
            first = _post(svc.url + "/tickets",
                          {"reporter": "alice", "text": TEXT,
                           "machine": "ws-01", "wait": True},
                          headers={"X-Org": "acme"})
            assert first[0] == 200
            limited = _post(svc.url + "/tickets",
                            {"reporter": "alice", "text": TEXT,
                             "machine": "ws-01"},
                            headers={"X-Org": "acme"})
            assert limited[0] == 429
            other = _post(svc.url + "/tickets",
                          {"reporter": "bob", "text": TEXT,
                           "machine": "ws-01", "wait": True},
                          headers={"X-Org": "globex"})
            assert other[0] == 200
        finally:
            svc.close()

    def test_queue_full_maps_to_429_backpressure(self):
        occupied = threading.Event()
        release = threading.Event()

        def slow_ops(shell, client):
            occupied.set()
            release.wait(timeout=30)

        svc = make_service(queue_depth=1, default_ops=slow_ops).start()
        try:
            assert _post(svc.url + "/tickets", {
                "reporter": "alice", "text": TEXT,
                "machine": "ws-01"})[0] == 202
            assert occupied.wait(timeout=30)  # worker is pinned in ops
            assert _post(svc.url + "/tickets", {
                "reporter": "bob", "text": TEXT,
                "machine": "ws-01"})[0] == 202  # fills the depth-1 queue
            status, headers, body = _post(svc.url + "/tickets", {
                "reporter": "bob", "text": TEXT, "machine": "ws-01"})
            payload = json.loads(body)
            assert status == 429 and payload["reason"] == "backpressure"
            assert int(headers["Retry-After"]) >= 1
            _, _, metrics = _get(svc.url + "/metrics")
            assert 'reason="backpressure"' in metrics
            assert "controlplane_rejected_total" in metrics
        finally:
            release.set()
            svc.close()

    def test_inflight_ceiling_maps_to_429(self):
        release = threading.Event()

        def slow_ops(shell, client):
            release.wait(timeout=30)

        svc = make_service(max_inflight=1, default_ops=slow_ops).start()
        try:
            assert _post(svc.url + "/tickets", {
                "reporter": "alice", "text": TEXT,
                "machine": "ws-01"})[0] == 202
            status, _, body = _post(svc.url + "/tickets", {
                "reporter": "bob", "text": TEXT, "machine": "ws-01"})
            assert status == 429
            assert json.loads(body)["reason"] == "inflight"
        finally:
            release.set()
            svc.close()

    def test_inflight_slots_return_after_completion(self):
        svc = make_service(max_inflight=2).start()
        try:
            for _ in range(3):  # would exceed the ceiling if slots leaked
                status, _, _ = _post(svc.url + "/tickets", {
                    "reporter": "alice", "text": TEXT,
                    "machine": "ws-01", "wait": True})
                assert status == 200
            assert svc.admission.inflight == 0
        finally:
            svc.close()


class TestLifecycle:
    def test_draining_service_rejects_with_503(self):
        svc = make_service().start()
        try:
            svc._draining = True
            status, headers, _ = _post(svc.url + "/tickets", {
                "reporter": "alice", "text": TEXT, "machine": "ws-01"})
            assert status == 503 and "Retry-After" in headers
            ready_status, _, body = _get(svc.url + "/readyz")
            assert ready_status == 503
            assert json.loads(body)["draining"]
            # liveness is unaffected by the drain
            assert _get(svc.url + "/healthz")[0] == 200
        finally:
            svc._draining = False
            svc.close()

    def test_graceful_drain_completes_accepted_tickets(self):
        svc = make_service().start()
        rows = [{"reporter": "alice", "text": TEXT, "machine": m}
                for m in MACHINES * 3]
        status, _, _ = _post(svc.url + "/tickets", {"tickets": rows})
        assert status == 202
        svc.close(drain=True)
        stats = svc.plane.stats()
        assert stats["completed"] == stats["submitted"] == len(rows)

    def test_three_start_drain_shutdown_cycles_leave_nothing_hung(self):
        for _ in range(3):
            svc = make_service(shards=2, prewarm_classes=("T-1",)).start()
            rows = [{"reporter": "bob", "text": TEXT, "machine": m}
                    for m in MACHINES * 4]
            status, _, body = _post(svc.url + "/tickets",
                                    {"tickets": rows, "wait": True})
            payload = json.loads(body)
            assert status == 200 and payload["accepted"] == len(rows)
            assert all(r["resolved"] for r in payload["results"])
            svc.close(drain=True)
            stats = svc.plane.stats()
            assert stats["completed"] == stats["submitted"]
            assert stats["inflight"] == 0

    def test_close_is_idempotent_and_context_manager_works(self):
        with make_service() as svc:
            url = svc.url
            assert _get(url + "/healthz")[0] == 200
        svc.close()  # second close is a no-op
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url + "/healthz", timeout=2)


class TestProcessWorkerService:
    """The service tier over process-mode workers: same endpoints, and a
    crashed worker flips /readyz to 503 while /healthz stays live."""

    def test_tickets_served_over_process_workers(self):
        svc = make_service(shards=2, workers="process",
                           prewarm_classes=("T-1",)).start()
        try:
            status, _, body = _post(svc.url + "/tickets", {
                "reporter": "alice", "text": TEXT, "machine": "ws-01",
                "wait": True})
            payload = json.loads(body)
            assert status == 200 and payload["results"]["resolved"]
            ready_status, _, ready_body = _get(svc.url + "/readyz")
            checks = json.loads(ready_body)
            assert ready_status == 200
            assert checks["workers"] == "process"
            assert checks["crashed_shards"] == []
        finally:
            svc.close()

    def test_worker_crash_flips_readyz_unready(self):
        import os
        import signal
        import time

        svc = make_service(shards=2, workers="process",
                           prewarm_classes=("T-1",)).start()
        try:
            assert _get(svc.url + "/readyz")[0] == 200
            pids = svc.plane.worker_pids()
            victim = min(pids)
            os.kill(pids[victim], signal.SIGKILL)
            deadline = time.monotonic() + 10
            while not svc.plane.crashed_shards():
                assert time.monotonic() < deadline, "crash never detected"
                time.sleep(0.02)
            status, _, body = _get(svc.url + "/readyz")
            checks = json.loads(body)
            assert status == 503
            assert not checks["workers_alive"]
            assert checks["crashed_shards"] == [victim]
            # liveness is about the listener, not the fleet
            assert _get(svc.url + "/healthz")[0] == 200
        finally:
            svc.close()


class TestWireSchemaOverHTTP:
    """The versioned wire format at the HTTP boundary."""

    def test_responses_are_schema_stamped(self, service):
        status, _, body = _post(service.url + "/tickets", {
            "reporter": "alice", "text": TEXT, "machine": "ws-01",
            "wait": True})
        assert status == 200
        assert json.loads(body)["schema"] == "watchit-ticket/v1"

    def test_v1_request_shape_is_accepted(self, service):
        status, _, body = _post(service.url + "/tickets", {
            "schema": "watchit-ticket/v1",
            "tickets": [{"reporter": "alice", "text": TEXT,
                         "machine": "ws-01"}],
            "wait": True})
        payload = json.loads(body)
        assert status == 200 and payload["accepted"] == 1
        assert payload["results"][0]["resolved"]

    def test_unknown_schema_version_is_400(self, service):
        status, _, body = _post(service.url + "/tickets", {
            "schema": "watchit-ticket/v2",
            "tickets": [{"reporter": "alice", "text": TEXT,
                         "machine": "ws-01"}]})
        payload = json.loads(body)
        assert status == 400
        assert "watchit-ticket/v1" in payload["error"]


def fix_sshd_config(shell, client):
    """Module-level session body: write a file on the leg it runs on."""
    shell.write_file("/etc/ssh/sshd_config", b"fixed")


class TestT9OverHTTP:
    """A T-9 ticket's target_machine reaches the session over HTTP."""

    T9_TEXT = "ssh connection to the lab server hangs, vnc too"

    @pytest.fixture(scope="class")
    def t9_service(self):
        plane = ControlPlane(machines=("ws-01", "ws-02", "ws-03", "ws-04"),
                             users=USERS, shards=4, pool_size=1)
        svc = TicketService(plane, ServiceConfig(port=0),
                            default_ops=fix_sshd_config).start()
        yield svc
        svc.close()

    def _ticket(self, target):
        return {"reporter": "alice", "text": self.T9_TEXT,
                "machine": "ws-01", "target_machine": target, "wait": True}

    def test_same_shard_target_is_served_on_both_legs(self, t9_service):
        from repro.store import verify_trail

        status, _, body = _post(t9_service.url + "/tickets",
                                self._ticket("ws-03"))
        assert status == 200, body
        result = json.loads(body)["results"]
        assert result["resolved"] and result["ticket_class"] == "T-9"
        trail = t9_service.plane.store.get_trail(result["session_id"])
        verify_trail(trail)
        assert {e.stream for e in trail.events
                if e.op == "write"} == {"fs", "fs@ws-03"}
        assert result["audit_records"] == len(trail.events)
        assert {c.machine for c in trail.certificates} == {"ws-01", "ws-03"}

    def test_unknown_target_is_a_400(self, t9_service):
        status, _, body = _post(t9_service.url + "/tickets",
                                self._ticket("ws-99"))
        assert status == 400
        assert "unknown target machine" in json.loads(body)["error"]

    def test_cross_shard_target_is_a_400_naming_both_shards(self,
                                                            t9_service):
        before = t9_service.plane.store.counts()["sessions"]
        status, _, body = _post(t9_service.url + "/tickets",
                                self._ticket("ws-02"))
        assert status == 400
        error = json.loads(body)["error"]
        assert "shard 0" in error and "shard 2" in error
        assert t9_service.plane.store.counts()["sessions"] == before


class TestSessionsOverHTTP:
    """GET /sessions and /sessions/<id> read the plane's event store."""

    def _served_session_id(self, service, org=None):
        headers = {"X-Org": org} if org else None
        _, _, body = _post(service.url + "/tickets", {
            "reporter": "alice", "text": TEXT, "machine": "ws-01",
            "wait": True}, headers=headers)
        return json.loads(body)["results"]["session_id"]

    def test_sessions_listing_contains_served_sessions(self, service):
        session_id = self._served_session_id(service)
        status, _, body = _get(service.url + "/sessions?limit=100")
        payload = json.loads(body)
        assert status == 200
        assert session_id in [s["session_id"]
                              for s in payload["sessions"]]

    def test_session_trail_replays_with_verified_chains(self, service):
        session_id = self._served_session_id(service)
        status, _, body = _get(service.url + "/sessions/" + session_id)
        payload = json.loads(body)
        assert status == 200
        assert payload["chain_verified"] is True
        assert payload["session"]["session_id"] == session_id
        assert payload["ticket"]["text"] == TEXT
        assert payload["certificates"][0]["revoked"] is True

    def test_unknown_session_is_404(self, service):
        assert _get(service.url + "/sessions/nope-b1-0")[0] == 404

    def test_bad_limit_is_400(self, service):
        assert _get(service.url + "/sessions?limit=ten")[0] == 400

    def test_x_org_header_labels_the_persisted_session(self, service):
        session_id = self._served_session_id(service, org="tenant-7")
        status, _, body = _get(service.url + "/sessions?org=tenant-7")
        payload = json.loads(body)
        assert status == 200
        rows = payload["sessions"]
        assert session_id in [s["session_id"] for s in rows]
        assert all(s["org"] == "tenant-7" for s in rows)


class TestFinalMetricsSnapshot:
    """Regression: a gracefully drained service left no record of what
    it served — close() now persists the last snapshot to bench_runs."""

    def test_graceful_drain_persists_final_metrics(self):
        svc = make_service().start()
        status, _, _ = _post(svc.url + "/tickets", {
            "reporter": "alice", "text": TEXT, "machine": "ws-01",
            "wait": True})
        assert status == 200
        svc.close(drain=True)
        runs = svc.plane.store.bench_runs(name="service-final-metrics")
        assert len(runs) == 1
        assert runs[0].metrics["completed"] >= 1
        assert runs[0].metrics["submitted"] == runs[0].metrics["completed"]
        assert "metrics_snapshot" in runs[0].artifacts

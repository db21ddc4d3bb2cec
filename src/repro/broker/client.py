"""Broker client — the ``PB`` command invoked inside the container.

"In order to prevent regular users from contacting the permission broker,
we configure the permission broker client to accept only requests from
privileged users" (Section 5.4). The client therefore refuses to even
serialize a request from a non-superuser shell.

Transport note: the paper streams protobuf over gRPC/TCP; here requests
cross a byte-serialization boundary (`to_bytes`/`handle_bytes`) delivered
in-process, standing in for the local TCP hop — optionally through a
:class:`~repro.broker.secure_channel.SecureBrokerTransport`. The two
directions use different codecs (see :mod:`repro.broker.protocol`):
requests are schema-validated JSON, because the host-side broker parses
them and the admin controls their sender; replies are ``marshal``, because
only this client reads them, and over the secure transport only after
their HMAC check. The isolation argument is unchanged: the client is a
dumb serializer, all authority lives server-side.

Resilience: transient transport failures (dropped or corrupted channel
frames, broker timeouts) are retried with deterministic exponential
backoff on an injectable clock. A policy denial is never retried, and an
exhausted budget surfaces as a typed
:class:`~repro.errors.RetryExhausted` — callers never hang and never see
a partial grant.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.broker.protocol import BrokerRequest, BrokerResponse, RequestKind
from repro.broker.retry import RETRYABLE_ERRORS, RetryPolicy, VirtualClock
from repro.broker.server import PermissionBroker
from repro.containit.container import AdminShell
from repro.errors import BrokerDenied, RetryExhausted


class BrokerClient:
    """Client handle bound to one admin shell and one broker endpoint.

    Attributes:
        transport: optional secure transport; when None, requests cross
            the byte boundary directly (the plain local TCP hop).
        retry: the backoff schedule for transient transport failures.
        clock: deterministic clock the backoff sleeps on.
    """

    def __init__(self, shell: AdminShell, broker: PermissionBroker,
                 ticket_class: Optional[str] = None,
                 transport=None, retry: Optional[RetryPolicy] = None,
                 clock: Optional[VirtualClock] = None):
        self.shell = shell
        self.broker = broker
        self.ticket_class = ticket_class or broker.container.spec.name
        self.transport = transport
        self.retry = retry if retry is not None else RetryPolicy()
        self.clock = clock if clock is not None else VirtualClock()

    def _check_privileged(self) -> None:
        if not self.shell.proc.creds.is_superuser:
            raise BrokerDenied("permission broker client: privileged users only")

    def _send(self, payload: bytes) -> bytes:
        if self.transport is not None:
            return self.transport.request(payload)
        return self.broker.handle_bytes(payload)

    def call(self, kind: RequestKind, **args) -> BrokerResponse:
        """Send one request through the serialization boundary.

        The same serialized payload (same ``seq``) is re-sent on every
        retry, so the server-side audit trail shows retries for what they
        are rather than as distinct escalations.
        """
        self._check_privileged()
        request = BrokerRequest(kind=kind, requester=self.shell.admin,
                                ticket_class=self.ticket_class, args=args)
        payload = request.to_bytes()
        delays = self.retry.delays()
        last_error: Optional[Exception] = None
        for attempt in range(self.retry.max_attempts):
            try:
                return BrokerResponse.from_bytes(self._send(payload))
            except RETRYABLE_ERRORS as exc:
                last_error = exc
                if attempt + 1 >= self.retry.max_attempts:
                    break
                obs.registry().counter("retries_total",
                                       kind=kind.value).inc()
                self.clock.sleep(delays[attempt])
        obs.registry().counter("retry_exhausted_total",
                               kind=kind.value).inc()
        raise RetryExhausted(
            f"broker {kind.value} request failed after "
            f"{self.retry.max_attempts} attempts: {last_error}",
            attempts=self.retry.max_attempts, last_error=last_error)

    # -- convenience wrappers (the PB command surface) ---------------------

    def pb(self, command_line: str) -> BrokerResponse:
        """``client.pb("ps -a")`` — Figure 6's ``PB ps -a``."""
        parts = command_line.strip().split()
        if not parts:
            raise BrokerDenied("empty PB command")
        return self.call(RequestKind.EXEC, command=parts[0], argv=parts[1:])

    def ps(self) -> BrokerResponse:
        return self.call(RequestKind.EXEC, command="ps", argv=["-a"])

    def share_path(self, host_path: str,
                   container_path: Optional[str] = None) -> BrokerResponse:
        args = {"host_path": host_path}
        if container_path is not None:
            args["container_path"] = container_path
        return self.call(RequestKind.SHARE_PATH, **args)

    def grant_network(self, destination: str,
                      port: Optional[int] = None) -> BrokerResponse:
        args = {"destination": destination}
        if port is not None:
            args["port"] = port
        return self.call(RequestKind.GRANT_NETWORK, **args)

    def install_package(self, package: str,
                        target: Optional[str] = None) -> BrokerResponse:
        args = {"package": package}
        if target is not None:
            args["target"] = target
        return self.call(RequestKind.INSTALL_PACKAGE, **args)

    def host_info(self) -> BrokerResponse:
        return self.call(RequestKind.HOST_INFO)

    def update_tcb(self, component: str, content: bytes,
                   signature: str) -> BrokerResponse:
        """Submit a policy-system-signed driver/kernel update (§2)."""
        return self.call(RequestKind.UPDATE_TCB, component=component,
                         content_hex=content.hex(), signature=signature)

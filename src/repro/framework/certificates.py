"""Temporary login certificates for perforated containers.

"Connecting to the deployed perforated containers is enabled via a
temporary certificate, which is revoked once the ticket time expires"
(Section 5.1, citing SSH-CA practice). Certificates bind (admin, ticket,
machine, container class) and carry an expiry on the deployment's logical
clock; the CA signs them with an HMAC so they cannot be forged or altered.
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import CertificateError

_CERT_SEQ = itertools.count(1)


@dataclass(frozen=True)
class Certificate:
    """A signed, time-limited authorization to enter one container."""

    serial: int
    admin: str
    ticket_id: int
    machine: str
    ticket_class: str
    issued_at: int
    expires_at: int
    signature: str = ""

    def payload(self) -> bytes:
        body = {
            "serial": self.serial, "admin": self.admin,
            "ticket_id": self.ticket_id, "machine": self.machine,
            "ticket_class": self.ticket_class,
            "issued_at": self.issued_at, "expires_at": self.expires_at,
        }
        return json.dumps(body, sort_keys=True).encode()


class CertificateAuthority:
    """Issues, validates, and revokes container-login certificates.

    Memory keeps only live certificates: an allowlist of the serials this
    CA minted and has not revoked. Revoking a ticket drops its entry, and
    the event store's ``CertificateRow`` is the history. A certificate
    validates only on the CA instance that issued it.
    """

    def __init__(self, clock: Callable[[], int], secret: bytes = b"watchit-ca",
                 default_ttl: int = 100):
        self._clock = clock
        self._secret = secret
        self.default_ttl = default_ttl
        #: ticket_id -> serials minted for it and not yet revoked
        self._by_ticket: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------

    def _sign(self, payload: bytes) -> str:
        return hmac.new(self._secret, payload, hashlib.sha256).hexdigest()

    def issue(self, admin: str, ticket_id: int, machine: str,
              ticket_class: str, ttl: Optional[int] = None) -> Certificate:
        """Mint a certificate valid for ``ttl`` clock ticks."""
        now = self._clock()
        cert = Certificate(
            serial=next(_CERT_SEQ), admin=admin, ticket_id=ticket_id,
            machine=machine, ticket_class=ticket_class, issued_at=now,
            expires_at=now + (ttl if ttl is not None else self.default_ttl))
        signed = Certificate(**{**cert.__dict__,
                                "signature": self._sign(cert.payload())})
        self._by_ticket.setdefault(ticket_id, []).append(signed.serial)
        return signed

    def validate(self, cert: Optional[Certificate], admin: str,
                 machine: Optional[str] = None) -> None:
        """Check signature, binding, expiry, and revocation.

        Raises:
            CertificateError: on any failure.
        """
        if cert is None:
            raise CertificateError("no certificate presented")
        if not hmac.compare_digest(cert.signature, self._sign(cert.payload())):
            raise CertificateError("certificate signature invalid")
        if cert.admin != admin:
            raise CertificateError(
                f"certificate issued to {cert.admin}, presented by {admin}")
        if machine is not None and cert.machine != machine:
            raise CertificateError(
                f"certificate bound to {cert.machine}, not {machine}")
        if cert.serial not in self._by_ticket.get(cert.ticket_id, ()):
            raise CertificateError("certificate has been revoked")
        if self._clock() > cert.expires_at:
            raise CertificateError("certificate has expired")

    def revoke_ticket(self, ticket_id: int) -> int:
        """Revoke every live certificate minted for one ticket."""
        return len(self._by_ticket.pop(ticket_id, ()))

    def authenticator(self, machine: Optional[str] = None
                      ) -> Callable[[Optional[Certificate], str], None]:
        """An auth hook in the shape ContainIT's ``login`` expects."""
        def check(cert, admin: str) -> None:
            self.validate(cert, admin, machine=machine)
        return check

"""Certificate authority: issuance, expiry, revocation, forgery."""

import pytest

from repro.errors import CertificateError
from repro.framework import CertificateAuthority


@pytest.fixture()
def clockbox():
    return {"now": 0}


@pytest.fixture()
def ca(clockbox):
    return CertificateAuthority(clock=lambda: clockbox["now"], default_ttl=10)


class TestValidation:
    def test_valid_certificate_accepted(self, ca):
        cert = ca.issue("it-bob", ticket_id=1, machine="ws-01", ticket_class="T-1")
        ca.validate(cert, "it-bob", machine="ws-01")

    def test_missing_certificate_rejected(self, ca):
        with pytest.raises(CertificateError):
            ca.validate(None, "it-bob")

    def test_wrong_admin_rejected(self, ca):
        cert = ca.issue("it-bob", 1, "ws-01", "T-1")
        with pytest.raises(CertificateError):
            ca.validate(cert, "it-mallory")

    def test_wrong_machine_rejected(self, ca):
        cert = ca.issue("it-bob", 1, "ws-01", "T-1")
        with pytest.raises(CertificateError):
            ca.validate(cert, "it-bob", machine="ws-99")

    def test_forged_signature_rejected(self, ca):
        import dataclasses
        cert = ca.issue("it-bob", 1, "ws-01", "T-1")
        forged = dataclasses.replace(cert, admin="it-mallory")
        with pytest.raises(CertificateError):
            ca.validate(forged, "it-mallory")

    def test_expired_certificate_rejected(self, ca, clockbox):
        cert = ca.issue("it-bob", 1, "ws-01", "T-1", ttl=5)
        clockbox["now"] = 6
        with pytest.raises(CertificateError):
            ca.validate(cert, "it-bob")

    def test_certificate_valid_until_expiry(self, ca, clockbox):
        cert = ca.issue("it-bob", 1, "ws-01", "T-1", ttl=5)
        clockbox["now"] = 5
        ca.validate(cert, "it-bob")


class TestRevocation:
    def test_revoked_certificate_rejected(self, ca):
        cert = ca.issue("it-bob", 1, "ws-01", "T-1")
        ca.revoke_ticket(cert.ticket_id)
        with pytest.raises(CertificateError, match="revoked"):
            ca.validate(cert, "it-bob")

    def test_certificate_from_another_ca_rejected(self, ca, clockbox):
        # same secret, so the signature checks out; but this CA never
        # minted the serial, and only live certificates it issued validate
        other = CertificateAuthority(clock=lambda: clockbox["now"],
                                     default_ttl=10)
        cert = other.issue("it-bob", 1, "ws-01", "T-1")
        other.validate(cert, "it-bob", machine="ws-01")
        with pytest.raises(CertificateError, match="revoked"):
            ca.validate(cert, "it-bob", machine="ws-01")

    def test_revoke_ticket_revokes_all(self, ca):
        a = ca.issue("it-bob", 7, "ws-01", "T-1")
        b = ca.issue("it-eve", 7, "ws-02", "T-1")
        c = ca.issue("it-bob", 8, "ws-01", "T-2")
        assert ca.revoke_ticket(7) == 2
        for cert, admin in ((a, "it-bob"), (b, "it-eve")):
            with pytest.raises(CertificateError):
                ca.validate(cert, admin)
        ca.validate(c, "it-bob")

    def test_revoked_after_bookkeeping_is_dropped(self, ca):
        cert = ca.issue("it-bob", 9, "ws-01", "T-1")
        assert ca.revoke_ticket(9) == 1
        assert 9 not in ca._by_ticket
        with pytest.raises(CertificateError, match="revoked"):
            ca.validate(cert, "it-bob")
        assert ca.revoke_ticket(9) == 0


class TestAuthenticatorHook:
    def test_hook_shape_matches_containit(self, ca):
        check = ca.authenticator(machine="ws-01")
        cert = ca.issue("it-bob", 1, "ws-01", "T-1")
        check(cert, "it-bob")
        with pytest.raises(CertificateError):
            check(cert, "someone-else")


class TestPerMachineLegs:
    """A T-9 session holds one certificate per machine, each bound."""

    def test_each_leg_has_a_certificate_bound_to_its_machine(self):
        from repro.framework import WatchITDeployment

        org = WatchITDeployment.bootstrap(machines=("ws-01", "ws-02"))
        org.register_admin("it-bob")
        ticket = org.submit_ticket("alice", "ssh vnc session dies",
                                   machine="ws-01", target_machine="ws-02")
        session = org.handle(ticket, admin="it-bob")
        try:
            source, target = session.legs
            assert (source.certificate.machine,
                    target.certificate.machine) == ("ws-01", "ws-02")
            assert source.certificate.ticket_id == \
                target.certificate.ticket_id == ticket.ticket_id
            # the source certificate does not open the target machine
            with pytest.raises(CertificateError, match="bound to ws-01"):
                org.authenticators["ws-02"](source.certificate, "it-bob")
            with pytest.raises(CertificateError):
                target.lease.container.login(
                    "it-bob", certificate=source.certificate,
                    authenticator=org.authenticators["ws-02"])
        finally:
            org.resolve(session)
        for leg in (source, target):
            with pytest.raises(CertificateError, match="revoked"):
                org.certificates.validate(leg.certificate, "it-bob")

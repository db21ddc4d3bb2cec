"""The versioned wire format: v1 parsing, the legacy shim, and refusal
of unknown schema versions."""

import pytest

from repro.service.wire import (
    WIRE_SCHEMA,
    TicketResponse,
    TicketSubmission,
    WireError,
    parse_ticket_request,
)

MACHINES = {"ws-01", "ws-02"}


class TestV1Requests:
    def test_v1_batch_parses(self):
        request = parse_ticket_request({
            "schema": WIRE_SCHEMA,
            "tickets": [{"reporter": "alice", "text": "vpn is down",
                         "machine": "ws-01"}],
            "admin": "it-bob", "org": "acme", "wait": True,
        }, MACHINES)
        assert request.tickets == (TicketSubmission(
            "alice", "vpn is down", "ws-01"),)
        assert request.admin == "it-bob"
        assert request.org == "acme" and request.wait
        assert not request.single
        assert request.rows() == [("alice", "vpn is down", "ws-01")]

    def test_v1_requires_a_tickets_list(self):
        with pytest.raises(WireError, match="'tickets' list"):
            parse_ticket_request({
                "schema": WIRE_SCHEMA, "reporter": "alice",
                "text": "x", "machine": "ws-01"}, MACHINES)

    def test_unknown_schema_is_refused_loudly(self):
        with pytest.raises(WireError, match="watchit-ticket/v2"):
            parse_ticket_request({
                "schema": "watchit-ticket/v2",
                "tickets": []}, MACHINES)


class TestTargetMachine:
    """A T-9 ticket's optional second machine, checked at the edge."""

    SHARDS = {"ws-01": 2, "ws-02": 0, "ws-03": 2}

    def _parse(self, target):
        return parse_ticket_request({
            "schema": WIRE_SCHEMA,
            "tickets": [{"reporter": "alice", "text": "ssh hangs",
                         "machine": "ws-01", "target_machine": target}],
        }, self.SHARDS)

    def test_target_on_the_same_shard_rides_along(self):
        request = self._parse("ws-03")
        assert request.tickets[0].target_machine == "ws-03"
        assert request.rows() == [("alice", "ssh hangs", "ws-01", "ws-03")]

    def test_unknown_target_is_refused(self):
        with pytest.raises(WireError, match="unknown target machine"):
            self._parse("ws-99")
        with pytest.raises(WireError, match="unknown target machine"):
            self._parse(7)

    def test_target_on_another_shard_names_both_shards(self):
        with pytest.raises(WireError, match="shard 0.*shard 2"):
            self._parse("ws-02")

    def test_a_plain_machine_set_checks_names_only(self):
        request = parse_ticket_request({
            "reporter": "alice", "text": "ssh hangs", "machine": "ws-01",
            "target_machine": "ws-02"}, MACHINES)
        assert request.tickets[0].target_machine == "ws-02"


class TestLegacyShim:
    def test_bare_ticket_upgrades_to_a_single_batch(self):
        request = parse_ticket_request({
            "reporter": "alice", "text": "vpn is down",
            "machine": "ws-02", "wait": True}, MACHINES)
        assert request.single
        assert len(request.tickets) == 1
        assert request.tickets[0].machine == "ws-02"

    def test_legacy_tickets_list_parses_unchanged(self):
        request = parse_ticket_request({
            "tickets": [
                {"reporter": "a", "text": "t", "machine": "ws-01"},
                {"reporter": "b", "text": "t", "machine": "ws-02"},
            ]}, MACHINES)
        assert not request.single
        assert len(request.tickets) == 2


class TestValidation:
    @pytest.mark.parametrize("row, match", [
        ({"text": "x", "machine": "ws-01"}, "reporter"),
        ({"reporter": "a", "machine": "ws-01"}, "text"),
        ({"reporter": "a", "text": "  ", "machine": "ws-01"}, "text"),
        ({"reporter": "a", "text": "x", "machine": "ws-99"},
         "unknown machine"),
        ({"reporter": "a", "text": "x"}, "unknown machine"),
    ])
    def test_bad_rows_raise(self, row, match):
        with pytest.raises(WireError, match=match):
            parse_ticket_request({"tickets": [row]}, MACHINES)

    def test_empty_batch_raises(self):
        with pytest.raises(WireError, match="non-empty"):
            parse_ticket_request({"tickets": []}, MACHINES)

    def test_oversized_batch_raises(self):
        rows = [{"reporter": "a", "text": "x", "machine": "ws-01"}] * 3
        with pytest.raises(WireError, match="at most 2"):
            parse_ticket_request({"tickets": rows}, MACHINES,
                                 max_tickets=2)

    def test_non_string_admin_raises(self):
        with pytest.raises(WireError, match="admin"):
            parse_ticket_request({
                "tickets": [{"reporter": "a", "text": "x",
                             "machine": "ws-01"}],
                "admin": 7}, MACHINES)

    def test_empty_org_raises(self):
        with pytest.raises(WireError, match="org"):
            parse_ticket_request({
                "tickets": [{"reporter": "a", "text": "x",
                             "machine": "ws-01"}],
                "org": ""}, MACHINES)


class TestResponses:
    def test_response_is_schema_stamped(self):
        payload = TicketResponse(accepted=2, rejected=1,
                                 statuses=("accepted", "accepted",
                                           "rejected")).to_dict()
        assert payload["schema"] == WIRE_SCHEMA
        assert payload["accepted"] == 2 and payload["rejected"] == 1
        assert "results" not in payload

    def test_results_and_extras_ride_along(self):
        payload = TicketResponse(
            accepted=1, rejected=0, results={"resolved": True},
            extra={"retry_after_ms": 50}).to_dict()
        assert payload["results"] == {"resolved": True}
        assert payload["retry_after_ms"] == 50

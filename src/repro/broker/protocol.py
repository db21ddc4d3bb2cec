"""Broker wire protocol.

The paper serializes broker traffic with protocol buffers over gRPC; we
reproduce the same discipline — a typed message schema and a byte-level
serialization boundary — with one codec per direction:

- **Requests (container → broker)** are JSON checked by
  :meth:`BrokerRequest.validate`. They are the only broker bytes the TCB
  parses, and they come from the container, which the admin controls, so
  their decoder must be safe on hostile input. Every request crosses this
  boundary even for in-process transports, so malformed or unauthorized
  messages are rejected exactly once, at the edge.
- **Replies (broker → client)** are an ``(ok, output, error)`` triple in
  stdlib :mod:`marshal`. The broker writes them and only the client on
  the admin's side reads them; over
  :class:`~repro.broker.secure_channel.SecureBrokerTransport` the client
  reads a reply only after its HMAC check. ``marshal``'s warning against
  untrusted data therefore never applies to trusted code. Outputs keep
  their Python types: ``mounts`` rows arrive as tuples, not lists.
"""

from __future__ import annotations

import enum
import itertools
import json
import marshal
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import InvalidArgument


class RequestKind(enum.Enum):
    """Escalation request types the broker understands."""

    EXEC = "exec"                       # run a command with host-wide view
    SHARE_PATH = "share_path"           # online file sharing (Section 5.5)
    GRANT_NETWORK = "grant_network"     # expand the container's network view
    INSTALL_PACKAGE = "install_package"  # fetch from the software repository
    HOST_INFO = "host_info"             # host introspection
    UPDATE_TCB = "update_tcb"           # signed driver/kernel update (§2)


#: Required argument names per request kind.
_REQUIRED_ARGS: Dict[RequestKind, tuple] = {
    RequestKind.EXEC: ("command",),
    RequestKind.SHARE_PATH: ("host_path",),
    RequestKind.GRANT_NETWORK: ("destination",),
    RequestKind.INSTALL_PACKAGE: ("package",),
    RequestKind.HOST_INFO: (),
    RequestKind.UPDATE_TCB: ("component", "content_hex", "signature"),
}

_SEQ = itertools.count(1)


@dataclass
class BrokerRequest:
    """One escalation request from a contained administrator."""

    kind: RequestKind
    requester: str
    ticket_class: str
    args: Dict[str, object] = field(default_factory=dict)
    seq: int = field(default_factory=lambda: next(_SEQ))

    def validate(self) -> None:
        """Check required fields; raises InvalidArgument on schema violation."""
        missing = [a for a in _REQUIRED_ARGS[self.kind] if a not in self.args]
        if missing:
            raise InvalidArgument(
                f"{self.kind.value} request missing args: {missing}")
        if not self.requester:
            raise InvalidArgument("request missing requester")

    def to_bytes(self) -> bytes:
        self.validate()
        return json.dumps({
            "kind": self.kind.value, "requester": self.requester,
            "ticket_class": self.ticket_class, "args": self.args,
            "seq": self.seq,
        }, sort_keys=True).encode()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BrokerRequest":
        try:
            raw = json.loads(data.decode())
            request = cls(kind=RequestKind(raw["kind"]),
                          requester=raw["requester"],
                          ticket_class=raw.get("ticket_class", ""),
                          args=dict(raw.get("args", {})),
                          seq=int(raw.get("seq", 0)))
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidArgument(f"malformed broker request: {exc}") from exc
        request.validate()
        return request


@dataclass
class BrokerResponse:
    """Broker reply: success flag, structured output, or an error string."""

    ok: bool
    output: object = None
    error: str = ""

    def to_bytes(self) -> bytes:
        return marshal.dumps((self.ok, self.output, self.error))

    @classmethod
    def from_bytes(cls, data: bytes) -> "BrokerResponse":
        """Decode a reply; anything but an ``(ok, output, error)`` triple
        raises InvalidArgument. A forged container count makes ``marshal``
        allocate that many slots, so a count beyond memory is malformed too.
        """
        try:
            raw = marshal.loads(data)
        except (EOFError, ValueError, TypeError, MemoryError) as exc:
            raise InvalidArgument(f"malformed broker reply: {exc!r}") from exc
        if type(raw) is not tuple or len(raw) != 3 or \
                type(raw[0]) is not bool or type(raw[2]) is not str:
            raise InvalidArgument(
                "malformed broker reply: not an (ok, output, error) triple")
        return cls(*raw)


def parse_command_line(line: str) -> Optional[BrokerRequest]:
    """Parse a ``PB <command>`` shell line into an EXEC request skeleton.

    Returns None if the line is not a PB invocation. Mirrors the paper's
    Figure 6 usage (``PB ps -a``). Requester/class are filled by the client.
    """
    parts = line.strip().split()
    if not parts or parts[0] != "PB" or len(parts) < 2:
        return None
    return BrokerRequest(kind=RequestKind.EXEC, requester="", ticket_class="",
                         args={"command": parts[1], "argv": parts[2:]})

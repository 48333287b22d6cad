"""RPC message representation."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional


class MessageKind(enum.Enum):
    """What a message carries."""

    REQUEST = "request"            # service invocation
    RESPONSE = "response"          # result back to the caller
    STORAGE_REQUEST = "storage_request"
    STORAGE_RESPONSE = "storage_response"


@dataclass
class Message:
    """One RPC-layer message.

    ``payload`` carries the simulator-level object (a request record);
    ``size_bytes`` drives serialization/link occupancy.  Sizes default to
    a small header+args RPC (requests) — Section 2.1's services exchange
    small payloads.

    ``msg_id`` is allocated per engine (:meth:`Message.create`) so ids are
    a deterministic function of one run, not of how many runs the hosting
    process executed before.
    """

    kind: MessageKind
    service: str
    payload: Any = None
    size_bytes: int = 512
    src: Optional[str] = None
    dst: Optional[str] = None
    msg_id: Optional[int] = None

    @classmethod
    def create(cls, engine, kind: MessageKind, service: str,
               **kwargs: Any) -> "Message":
        """Build a message with a run-local id from ``engine``."""
        msg = cls(kind, service, msg_id=engine.next_msg_id(), **kwargs)
        probe = engine.probe
        if probe.enabled:
            probe.message_created(msg)
        return msg

    @property
    def is_request(self) -> bool:
        return self.kind in (MessageKind.REQUEST, MessageKind.STORAGE_REQUEST)

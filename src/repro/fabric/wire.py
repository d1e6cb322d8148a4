"""The fabric RPC wire dialect: a JSON header and opaque payload bytes.

Every coordinator↔worker and client↔server exchange is a stream of
*fabric frames*.  A fabric frame rides the same sealed envelope as a
blackboard frame (:mod:`repro.net.envelope`: length prefix, kind byte,
trace context, CRC-32 seal, size bound); this module encodes only the
body, a JSON header followed by the payload, because fabric frames
carry structured fields (:class:`~repro.store.keys.ResultKey` dicts,
digests) rather than protocol bits::

    body := header_len (4 B BE) | header JSON (UTF-8) | payload bytes

The payload is the rest of the body.  Decoding is strict, like the
envelope's: a header that overruns the body, is not JSON or is not a
JSON object raises :class:`~repro.net.errors.FrameCorrupted`, and so
does a kind outside :class:`FabricFrameKind`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Dict, Optional, Tuple

from ..net.envelope import check_context, decode_envelope, encode_envelope
from ..net.errors import FrameCorrupted
from ..net.stream import StreamDecoder

__all__ = [
    "FabricFrameKind",
    "FabricFrame",
    "encode_fabric_frame",
    "decode_fabric_frame",
    "FabricFrameDecoder",
]

_LEN_BYTES = 4


class FabricFrameKind(IntEnum):
    """The fabric frame vocabulary.

    ``HELLO``/``WELCOME`` open a worker or client session; ``LEASE``
    grants a cell to a worker; ``RESULT`` ships a computed (or
    store-served) cell payload back; ``STEAL`` is a worker's explicit
    request for more work when its queue drained; ``GET``/``SERVE``
    are the result-serving API's lookup pair; ``HEARTBEAT`` keeps a
    quiet connection observably alive; ``ERROR`` carries a typed
    failure; ``BYE`` closes a session cleanly.
    """

    HELLO = 0
    WELCOME = 1
    LEASE = 2
    RESULT = 3
    STEAL = 4
    GET = 5
    SERVE = 6
    HEARTBEAT = 7
    ERROR = 8
    BYE = 9


@dataclass(frozen=True)
class FabricFrame:
    """One fabric frame: a kind, a JSON-able header dict, opaque
    payload bytes, and the sender's trace context (``None`` =
    untraced), carried by the envelope as in a blackboard frame."""

    kind: FabricFrameKind
    fields: Dict[str, Any] = field(default_factory=dict)
    payload: bytes = b""
    trace_id: Optional[int] = None
    parent_span: Optional[int] = None

    def __post_init__(self) -> None:
        if self.trace_id is not None or self.parent_span is not None:
            check_context(self.trace_id, self.parent_span)


def encode_fabric_frame(frame: FabricFrame) -> bytes:
    """Serialize ``frame`` to wire bytes: its header and payload in the
    sealed envelope."""
    header = json.dumps(
        frame.fields, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    body = len(header).to_bytes(_LEN_BYTES, "big") + header + frame.payload
    return encode_envelope(
        frame.kind, body, frame.trace_id, frame.parent_span
    )


def decode_fabric_frame(buffer: bytes) -> Tuple[FabricFrame, int]:
    """Decode one frame from the head of ``buffer``.

    Returns ``(frame, bytes_consumed)``.  Raises
    :class:`~repro.net.errors.FrameTruncated` when the buffer holds
    only part of a frame and
    :class:`~repro.net.errors.FrameCorrupted` when the envelope or the
    header is wrong.
    """
    envelope, consumed = decode_envelope(buffer, FabricFrameKind)
    body = envelope.body
    header_end = _LEN_BYTES + int.from_bytes(body[:_LEN_BYTES], "big")
    if len(body) < _LEN_BYTES or header_end > len(body):
        raise FrameCorrupted("fabric frame header overruns its body")
    try:
        fields = json.loads(body[_LEN_BYTES:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameCorrupted(f"fabric frame header is not JSON: {exc}")
    if not isinstance(fields, dict):
        raise FrameCorrupted("fabric frame header is not a JSON object")
    return (
        FabricFrame(
            envelope.kind,
            fields,
            body[header_end:],
            envelope.trace_id,
            envelope.parent_span,
        ),
        consumed,
    )


class FabricFrameDecoder(StreamDecoder[FabricFrame]):
    """Incremental decoder for a fabric byte stream; see
    :class:`~repro.net.stream.StreamDecoder`."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(decode_fabric_frame)

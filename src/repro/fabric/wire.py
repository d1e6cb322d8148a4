"""The fabric RPC wire layer: CRC-sealed, version-tolerant frames.

Every coordinator↔worker and client↔server exchange is a stream of
*fabric frames*.  The layout follows the ``repro.net.framing`` idioms —
a length prefix, a :func:`repro.coding.integrity.seal`-ed body, typed
truncation/corruption errors — but with a JSON header instead of
bit-packed fields, because fabric frames carry structured payloads
(:class:`~repro.store.keys.ResultKey` dicts, digests, trace context)
rather than protocol bits::

    +----------------+--------------------------------------+-----------+
    | length (4 B BE)| body                                 | CRC-32    |
    +----------------+--------------------------------------+-----------+

    body := kind (1 B) | header_len (4 B BE) | header JSON (UTF-8)
          | payload_len (4 B BE) | payload bytes | [extension bytes]

Version tolerance is structural, in both directions:

* unknown *header keys* survive decoding untouched (they are plain dict
  entries), so an old reader forwards fields a newer writer added;
* *extension bytes* after the declared payload are covered by the CRC
  but otherwise ignored, so a newer writer can append trailing data
  without breaking old readers;
* an unknown *kind* byte decodes to its raw integer value instead of
  raising — receivers skip frames they do not understand.

A failed CRC raises :class:`~repro.net.errors.FrameCorrupted`; an
incomplete buffer raises :class:`~repro.net.errors.FrameTruncated`
(:class:`FabricFrameDecoder` buffers those bytes and waits for more).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Dict, Tuple, Union

from ..coding.integrity import IntegrityError, seal, unseal
from ..net.errors import FrameCorrupted, FrameError, FrameTruncated
from ..net.stream import StreamDecoder

__all__ = [
    "MAX_FRAME_BYTES",
    "FabricFrameKind",
    "FabricFrame",
    "encode_fabric_frame",
    "decode_fabric_frame",
    "FabricFrameDecoder",
]

#: Upper bound on one sealed frame body.  Cell payloads are canonical
#: JSON of small result tuples (bytes to kilobytes); anything near this
#: bound is a corrupted length prefix, rejected before allocation.
MAX_FRAME_BYTES = 8 << 20

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
    """One fabric frame: a kind, a JSON-able header dict, and opaque
    payload bytes.  ``kind`` is a plain ``int`` when the frame came from
    a newer peer speaking an unknown kind."""

    kind: Union[FabricFrameKind, int]
    fields: Dict[str, Any] = field(default_factory=dict)
    payload: bytes = b""

    @property
    def kind_name(self) -> str:
        if isinstance(self.kind, FabricFrameKind):
            return self.kind.name
        return f"UNKNOWN_{int(self.kind)}"


def encode_fabric_frame(frame: FabricFrame) -> bytes:
    """Serialize ``frame`` to its length-prefixed, CRC-sealed wire
    bytes."""
    header = json.dumps(
        frame.fields, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    body = (
        bytes([int(frame.kind) & 0xFF])
        + len(header).to_bytes(_LEN_BYTES, "big")
        + header
        + len(frame.payload).to_bytes(_LEN_BYTES, "big")
        + frame.payload
    )
    sealed = seal(body)
    if len(sealed) > MAX_FRAME_BYTES:
        raise FrameError(
            f"fabric frame of {len(sealed)} sealed bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    return len(sealed).to_bytes(_LEN_BYTES, "big") + sealed


def _parse_body(body: bytes) -> FabricFrame:
    if len(body) < 1 + _LEN_BYTES:
        raise FrameCorrupted("fabric frame body too short for its header")
    kind_value = body[0]
    try:
        kind: Union[FabricFrameKind, int] = FabricFrameKind(kind_value)
    except ValueError:
        # A newer peer's frame kind: deliver it raw, let the receiver
        # skip it — unknown kinds must not poison the stream.
        kind = kind_value
    offset = 1
    header_len = int.from_bytes(body[offset:offset + _LEN_BYTES], "big")
    offset += _LEN_BYTES
    if offset + header_len + _LEN_BYTES > len(body):
        raise FrameCorrupted("fabric frame header overruns its body")
    header_bytes = body[offset:offset + header_len]
    offset += header_len
    try:
        fields = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameCorrupted(f"fabric frame header is not JSON: {exc}")
    if not isinstance(fields, dict):
        raise FrameCorrupted("fabric frame header is not a JSON object")
    payload_len = int.from_bytes(body[offset:offset + _LEN_BYTES], "big")
    offset += _LEN_BYTES
    if offset + payload_len > len(body):
        raise FrameCorrupted("fabric frame payload overruns its body")
    payload = body[offset:offset + payload_len]
    # Bytes past the payload are a newer writer's extension: CRC-covered
    # but deliberately ignored (forward compatibility).
    return FabricFrame(kind=kind, fields=fields, payload=payload)


def decode_fabric_frame(buffer: bytes) -> Tuple[FabricFrame, int]:
    """Decode one frame from the head of ``buffer``.

    Returns ``(frame, bytes_consumed)``.  Raises
    :class:`~repro.net.errors.FrameTruncated` when the buffer holds
    only part of a frame and
    :class:`~repro.net.errors.FrameCorrupted` when the CRC or the body
    structure is wrong.
    """
    if len(buffer) < _LEN_BYTES:
        raise FrameTruncated("fabric frame length prefix incomplete")
    sealed_len = int.from_bytes(buffer[:_LEN_BYTES], "big")
    if sealed_len > MAX_FRAME_BYTES:
        raise FrameCorrupted(
            f"fabric frame claims {sealed_len} sealed bytes "
            f"(> {MAX_FRAME_BYTES}) — corrupted length prefix"
        )
    end = _LEN_BYTES + sealed_len
    if len(buffer) < end:
        raise FrameTruncated(
            f"fabric frame needs {end} bytes, buffer has {len(buffer)}"
        )
    try:
        body = unseal(bytes(buffer[_LEN_BYTES:end]))
    except IntegrityError as exc:
        raise FrameCorrupted(f"fabric frame failed its CRC seal: {exc}")
    return _parse_body(body), end


class FabricFrameDecoder(StreamDecoder[FabricFrame]):
    """Incremental decoder for a fabric byte stream; see
    :class:`~repro.net.stream.StreamDecoder`."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(decode_fabric_frame)

"""The wire protocol: length-prefixed, checksummed frames of bits.

A frame carries one unit of blackboard traffic — a write request, a
rebroadcast append, or control chatter (hello/sync/bye).  The encoding
reuses the coding layer the paper's protocols are built from:

* header integers (party id, round index, coin draws, payload length)
  are Elias-gamma varints (:mod:`repro.coding.varint`), so short control
  frames cost a handful of bytes;
* the payload is the message's raw bit string, written verbatim with
  :class:`repro.coding.bitio.BitWriter`;
* the whole body is packed into bytes, length-prefixed with an
  Elias-delta varint (self-delimiting, so a stream reader never needs a
  fixed-width header), and sealed with a CRC-32 of the body bytes.

Wire layout::

    +----------------------+------------------+----------------+
    | Elias-delta(len body)| body (len bytes) | CRC-32 (4 B)   |
    |  packed to bytes     |                  |  big-endian    |
    +----------------------+------------------+----------------+

    body bits = kind:4 | gamma(party+1) | gamma(round+1)
              | gamma(coin_draws+1) | gamma(|payload|+1) | payload
              | [extension] | zero padding to a byte boundary (< 8 bits)

The optional *extension* carries the sender's trace context
(:class:`repro.obs.TraceContext`) so a blackboard server can attribute
its work under the requesting party's span purely from wire bytes::

    extension = gamma(word_count+1) | gamma(trace_id+1)
              | gamma(parent_span+1) | ... future words ...

The encoding is version-tolerant in both directions: a frame without
context is **byte-identical** to the pre-extension wire format (the
padding after the payload is all-zero and shorter than a byte, which no
gamma code can be — every gamma code contains a ``1`` bit), and a
decoder accepts any ``word_count`` — 0 or 1 words degrade to a partial
context, words beyond the two it understands are ignored, so old and
new peers interoperate.

Decoding is strict: nonzero padding, an out-of-range kind, a length
prefix that disagrees with the parsed fields, or a checksum mismatch all
raise :class:`~repro.net.errors.FrameCorrupted`; a buffer that simply
ends too early raises :class:`~repro.net.errors.FrameTruncated` so
stream decoders know to wait for more bytes.  Any single-bit flip on the
wire is therefore detected (CRC-32 catches all single-bit errors) —
*before* any context parse, so a corrupted frame can never mis-parent a
span — which is the property the fault injector's corruption class
leans on.

The ``coin_draws`` field is the determinism keystone: it tells every
observer how many private-coin draws the speaker consumed producing the
payload (0 for point-mass messages, 1 for sampled ones), letting each
party advance its replica of the shared coin stream in lockstep with
:func:`repro.core.runner.run_protocol` — see ``docs/networking.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Tuple

from ..coding.bitio import BitReader, BitWriter, Bits, is_bit_string
from ..coding.integrity import crc32
from ..coding.varint import (
    decode_elias_delta,
    decode_elias_gamma,
    encode_elias_delta,
    encode_elias_gamma,
)
from .errors import FrameCorrupted, FrameTruncated
from .stream import StreamDecoder

__all__ = [
    "FrameKind",
    "Frame",
    "encode_frame",
    "decode_frame",
    "FrameDecoder",
    "pack_bits",
    "unpack_bits",
    "MAX_BODY_BYTES",
]

#: Frames larger than this are rejected as corrupt before any allocation
#: happens — a garbage length prefix must not make a reader buffer
#: gigabytes.
MAX_BODY_BYTES = 1 << 20

#: The length prefix of any legal frame fits in this many bytes
#: (Elias delta of MAX_BODY_BYTES is 29 bits); a prefix still undecoded
#: after this many bytes is garbage, not a long frame.
_MAX_PREFIX_BYTES = 8

_KIND_WIDTH = 4
_CRC_BYTES = 4


class FrameKind(IntEnum):
    """The frame vocabulary of the blackboard wire protocol."""

    #: client → server: "party ``party`` is (re)connecting; send me the
    #: board from round ``round_index`` on".
    HELLO = 0
    #: server → client: connection accepted; ``round_index`` is the
    #: current board length.
    WELCOME = 1
    #: client → server: write request for round ``round_index``.
    APPEND = 2
    #: server → all clients: round ``round_index`` is now on the board.
    BROADCAST = 3
    #: client → server: "re-send broadcasts from round ``round_index``"
    #: (recovery after a lost or corrupted delivery).
    SYNC = 4
    #: client → server: this party has halted and computed its output.
    BYE = 5
    #: server → client: the client's last request violated the board
    #: contract; the client raises ``OrderViolationError``.
    ERROR = 6
    #: party → party (byzantine mode): "I have seen the speaker's SEND
    #: for this round and it carried this payload" — the first Bracha
    #: voting phase.  ``party`` is the *voter*; the voted value is the
    #: ``(payload, coin_draws)`` pair.
    ECHO = 7
    #: party → party (byzantine mode): "an echo quorum (or ``f+1``
    #: readies) vouched for this payload" — the second Bracha voting
    #: phase; ``2f+1`` of these deliver the round.
    READY = 8


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame.

    ``party`` is the speaker for APPEND/BROADCAST and the sender's party
    id for control frames.  ``round_index`` is the written round for
    APPEND/BROADCAST, the catch-up start for HELLO/SYNC, and the board
    length for WELCOME.  ``coin_draws`` is the number of private-coin
    draws the speaker consumed sampling ``payload`` (0 or 1; always 0
    for control frames).

    ``trace_id``/``parent_span`` are the sender's trace context
    (``None`` = untraced; encodes byte-identically to the pre-extension
    format).  A ``parent_span`` requires a ``trace_id``.
    """

    kind: FrameKind
    party: int = 0
    round_index: int = 0
    coin_draws: int = 0
    payload: Bits = ""
    trace_id: Optional[int] = None
    parent_span: Optional[int] = None

    @property
    def kind_name(self) -> str:
        return self.kind.name

    def __post_init__(self) -> None:
        if self.party < 0:
            raise ValueError(f"party must be >= 0, got {self.party}")
        if self.round_index < 0:
            raise ValueError(f"round_index must be >= 0, got {self.round_index}")
        if self.coin_draws < 0:
            raise ValueError(f"coin_draws must be >= 0, got {self.coin_draws}")
        if not isinstance(self.payload, str):
            raise TypeError(
                f"payload must be a str, got {type(self.payload).__name__}"
            )
        if not is_bit_string(self.payload):
            raise ValueError(f"payload must be a bit string: {self.payload!r}")
        if self.trace_id is not None and self.trace_id < 0:
            raise ValueError(f"trace_id must be >= 0, got {self.trace_id}")
        if self.parent_span is not None:
            if self.trace_id is None:
                raise ValueError("parent_span requires a trace_id")
            if self.parent_span < 0:
                raise ValueError(
                    f"parent_span must be >= 0, got {self.parent_span}"
                )


def pack_bits(bits: Bits) -> bytes:
    """Pack a bit string into bytes, zero-padding the final byte."""
    if not bits:
        return b""
    padded = bits + "0" * (-len(bits) % 8)
    return int(padded, 2).to_bytes(len(padded) // 8, "big")


def unpack_bits(data: bytes) -> Bits:
    """The bit string of ``data`` (8 bits per byte, big-endian)."""
    if not data:
        return ""
    return format(int.from_bytes(data, "big"), f"0{len(data) * 8}b")


def _body_bits(frame: Frame) -> Bits:
    writer = BitWriter()
    writer.write_uint(int(frame.kind), _KIND_WIDTH)
    writer.write_bits(encode_elias_gamma(frame.party + 1))
    writer.write_bits(encode_elias_gamma(frame.round_index + 1))
    writer.write_bits(encode_elias_gamma(frame.coin_draws + 1))
    writer.write_bits(encode_elias_gamma(len(frame.payload) + 1))
    writer.write_bits(frame.payload)
    if frame.trace_id is not None:
        words = [frame.trace_id + 1]
        if frame.parent_span is not None:
            words.append(frame.parent_span + 1)
        writer.write_bits(encode_elias_gamma(len(words) + 1))
        for word in words:
            writer.write_bits(encode_elias_gamma(word))
    return writer.getvalue()


def encode_frame(frame: Frame) -> bytes:
    """Serialize ``frame`` to wire bytes (prefix + body + CRC-32)."""
    body = pack_bits(_body_bits(frame))
    if len(body) > MAX_BODY_BYTES:
        raise ValueError(
            f"frame body of {len(body)} bytes exceeds MAX_BODY_BYTES"
        )
    prefix = pack_bits(encode_elias_delta(len(body)))
    return prefix + body + crc32(body).to_bytes(_CRC_BYTES, "big")


def _decode_prefix(buffer: bytes) -> Tuple[int, int]:
    """Parse the Elias-delta length prefix; returns ``(body_len,
    prefix_bytes)``.  Raises FrameTruncated if more bytes are needed and
    FrameCorrupted if the prefix is garbage."""
    limit = min(len(buffer), _MAX_PREFIX_BYTES)
    for nbytes in range(1, limit + 1):
        bits = unpack_bits(buffer[:nbytes])
        reader = BitReader(bits)
        try:
            value = decode_elias_delta(reader)
        except EOFError:
            continue  # the prefix spans into the next byte
        if any(c != "0" for c in bits[reader.position :]):
            raise FrameCorrupted("nonzero padding after the length prefix")
        if not 1 <= value <= MAX_BODY_BYTES:
            raise FrameCorrupted(f"implausible body length {value}")
        return value, nbytes
    if len(buffer) >= _MAX_PREFIX_BYTES:
        raise FrameCorrupted(
            f"no length prefix within {_MAX_PREFIX_BYTES} bytes"
        )
    raise FrameTruncated("length prefix incomplete")


def decode_frame(buffer: bytes) -> Tuple[Frame, int]:
    """Parse one frame from the start of ``buffer``.

    Returns ``(frame, bytes_consumed)``.  Raises
    :class:`~repro.net.errors.FrameTruncated` when the buffer holds only
    part of a frame, :class:`~repro.net.errors.FrameCorrupted` when the
    bytes cannot be a valid frame (bad padding, bad kind, checksum
    mismatch, fields overrunning the declared length).
    """
    if not buffer:
        raise FrameTruncated("empty buffer")
    body_len, prefix_len = _decode_prefix(buffer)
    total = prefix_len + body_len + _CRC_BYTES
    if len(buffer) < total:
        raise FrameTruncated(
            f"frame needs {total} bytes, buffer has {len(buffer)}"
        )
    body = buffer[prefix_len : prefix_len + body_len]
    crc_bytes = buffer[prefix_len + body_len : total]
    if crc32(body) != int.from_bytes(crc_bytes, "big"):
        raise FrameCorrupted("checksum mismatch")
    body_bits = unpack_bits(body)
    reader = BitReader(body_bits)
    try:
        kind_value = reader.read_uint(_KIND_WIDTH)
        party = decode_elias_gamma(reader) - 1
        round_index = decode_elias_gamma(reader) - 1
        coin_draws = decode_elias_gamma(reader) - 1
        payload_len = decode_elias_gamma(reader) - 1
        payload = reader.read_bits(payload_len)
    except EOFError as exc:
        raise FrameCorrupted(f"fields overrun the frame body: {exc}") from exc
    try:
        kind = FrameKind(kind_value)
    except ValueError as exc:
        raise FrameCorrupted(f"unknown frame kind {kind_value}") from exc
    trace_id: Optional[int] = None
    parent_span: Optional[int] = None
    if reader.remaining >= 8 or any(
        c != "0" for c in body_bits[reader.position :]
    ):
        # Not legacy padding (all-zero, sub-byte) — a context extension
        # block follows the payload.  The CRC already vouched for the
        # bytes, so a parse failure here is a framing bug upstream, not
        # line noise; it is still reported as corruption.
        try:
            word_count = decode_elias_gamma(reader) - 1
            words = [
                decode_elias_gamma(reader) - 1 for _ in range(word_count)
            ]
        except EOFError as exc:
            raise FrameCorrupted(
                f"context extension overruns the frame body: {exc}"
            ) from exc
        # Version tolerance: 0/1 words degrade gracefully; words beyond
        # the two we understand belong to a future revision and are
        # ignored.
        if word_count >= 1:
            trace_id = words[0]
        if word_count >= 2:
            parent_span = words[1]
        if reader.remaining >= 8 or any(
            c != "0" for c in body_bits[reader.position :]
        ):
            raise FrameCorrupted("nonzero or oversized body padding")
    return (
        Frame(
            kind=kind,
            party=party,
            round_index=round_index,
            coin_draws=coin_draws,
            payload=payload,
            trace_id=trace_id,
            parent_span=parent_span,
        ),
        total,
    )


class FrameDecoder(StreamDecoder[Frame]):
    """Incremental decoder for a blackboard byte stream (the TCP
    transport); see :class:`~repro.net.stream.StreamDecoder`."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(decode_frame)

"""The blackboard wire dialect: frames of bits.

A frame carries one unit of blackboard traffic — a write request, a
rebroadcast append, or control chatter (hello/sync/bye).  It rides the
sealed envelope of :mod:`repro.net.envelope`, which owns the length
prefix, the kind byte, the CRC-32 seal, the size bound and the trace
context; this module encodes only the body, with the coding layer the
paper's protocols are built from::

    body bits = gamma(party+1) | gamma(round+1) | gamma(coin_draws+1)
              | gamma(|payload|+1) | payload
              | zero padding to a byte boundary (< 8 bits)

Header integers are Elias-gamma varints (:mod:`repro.coding.varint`),
so a control body is a byte or two; the payload is the message's raw
bit string.  Decoding is strict: fields overrunning the body, or
padding that is nonzero or a byte or longer, raise
:class:`~repro.net.errors.FrameCorrupted`, like every envelope failure.

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

from ..coding.bitio import BitReader, Bits, is_bit_string
from ..coding.varint import decode_elias_gamma, encode_elias_gamma
from .envelope import check_context, decode_envelope, encode_envelope
from .errors import FrameCorrupted
from .stream import StreamDecoder

__all__ = [
    "FrameKind",
    "Frame",
    "encode_frame",
    "decode_frame",
    "FrameDecoder",
    "pack_bits",
    "unpack_bits",
]


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
    (``None`` = untraced), carried by the envelope.  A ``parent_span``
    requires a ``trace_id``.
    """

    kind: FrameKind
    party: int = 0
    round_index: int = 0
    coin_draws: int = 0
    payload: Bits = ""
    trace_id: Optional[int] = None
    parent_span: Optional[int] = None

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
        if self.trace_id is not None or self.parent_span is not None:
            check_context(self.trace_id, self.parent_span)


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


def encode_frame(frame: Frame) -> bytes:
    """Serialize ``frame`` to wire bytes: its gamma-coded body in the
    sealed envelope."""
    body = pack_bits(
        encode_elias_gamma(frame.party + 1)
        + encode_elias_gamma(frame.round_index + 1)
        + encode_elias_gamma(frame.coin_draws + 1)
        + encode_elias_gamma(len(frame.payload) + 1)
        + frame.payload
    )
    return encode_envelope(
        frame.kind, body, frame.trace_id, frame.parent_span
    )


def decode_frame(buffer: bytes) -> Tuple[Frame, int]:
    """Parse one frame from the start of ``buffer``.

    Returns ``(frame, bytes_consumed)``.  Raises
    :class:`~repro.net.errors.FrameTruncated` when the buffer holds only
    part of a frame, :class:`~repro.net.errors.FrameCorrupted` when the
    bytes cannot be a valid frame (see :mod:`repro.net.envelope`), or
    when the body's fields overrun it or leave anything but zero
    padding shorter than a byte.
    """
    envelope, consumed = decode_envelope(buffer, FrameKind)
    body_bits = unpack_bits(envelope.body)
    reader = BitReader(body_bits)
    try:
        party = decode_elias_gamma(reader) - 1
        round_index = decode_elias_gamma(reader) - 1
        coin_draws = decode_elias_gamma(reader) - 1
        payload = reader.read_bits(decode_elias_gamma(reader) - 1)
    except EOFError as exc:
        raise FrameCorrupted(f"fields overrun the frame body: {exc}") from exc
    padding = body_bits[reader.position :]
    if len(padding) >= 8 or "1" in padding:
        raise FrameCorrupted("nonzero or oversized body padding")
    return (
        Frame(
            kind=envelope.kind,
            party=party,
            round_index=round_index,
            coin_draws=coin_draws,
            payload=payload,
            trace_id=envelope.trace_id,
            parent_span=envelope.parent_span,
        ),
        consumed,
    )


class FrameDecoder(StreamDecoder[Frame]):
    """Incremental decoder for a blackboard byte stream (the TCP
    transport); see :class:`~repro.net.stream.StreamDecoder`."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(decode_frame)

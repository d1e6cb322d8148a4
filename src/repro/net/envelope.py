"""The one sealed envelope every wire frame travels in.

Both wire dialects — the blackboard frames of :mod:`repro.net.framing`
and the fabric RPC frames of :mod:`repro.fabric.wire` — encode only
their own body.  This module alone prefixes, seals, bounds and
trace-stamps a frame::

    +-----------------+---------------------------------------------------+
    | length (4 B BE) | kind (1 B) | trace (8 B) | span (8 B) | body | CRC |
    +-----------------+---------------------------------------------------+
                      \\____________ sealed (length bytes) _______________/

``length`` counts the sealed bytes; the CRC-32 trailer comes from
:func:`repro.coding.integrity.seal` and covers kind, context and body.
The trace context words carry ``trace_id + 1`` and ``parent_span + 1``,
with 0 for "absent", so the context has one width whether a frame is
traced or not: a frame's length never depends on its trace context, and
neither do the fault injector's draws.

The policy is strict, and the same for both dialects (every peer is
spawned from the same checkout): a kind outside the dialect's
vocabulary, a span without a trace, or a body the dialect cannot parse
exactly is :class:`~repro.net.errors.FrameCorrupted`.  A buffer that
ends before the frame does is :class:`~repro.net.errors.FrameTruncated`,
so stream decoders wait for more bytes.  The length is checked against
:data:`MAX_FRAME_BYTES` before any byte past the prefix is read, so a
garbage prefix cannot make a reader buffer gigabytes.  Every single-bit
flip is detected: one inside the sealed bytes fails the CRC, and one in
the prefix either leaves the bound, overruns the buffer, or moves the
CRC to bytes that are not one.
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple, Optional, Tuple, Type

from ..coding.integrity import CRC_BYTES, IntegrityError, seal, unseal
from .errors import FrameCorrupted, FrameError, FrameTruncated

__all__ = [
    "MAX_FRAME_BYTES",
    "Envelope",
    "check_context",
    "encode_envelope",
    "decode_envelope",
]

#: Upper bound on one frame's sealed bytes.  Blackboard frames are tens
#: of bytes and fabric cell payloads kilobytes; a length near this bound
#: is a corrupted prefix.
MAX_FRAME_BYTES = 8 << 20

_LENGTH_BYTES = 4
_WORD_BYTES = 8
#: Largest trace id or span id a context word can carry (``+ 1`` must
#: fit in the word).
_MAX_WORD = (1 << (8 * _WORD_BYTES)) - 2
_NO_CONTEXT = bytes(2 * _WORD_BYTES)
_BODY_START = 1 + 2 * _WORD_BYTES
_MIN_SEALED = _BODY_START + CRC_BYTES


class Envelope(NamedTuple):
    """One opened envelope: the dialect's kind, the trace context and
    the dialect body bytes."""

    kind: IntEnum
    trace_id: Optional[int]
    parent_span: Optional[int]
    body: bytes


def check_context(trace_id: Optional[int], parent_span: Optional[int]) -> None:
    """Raise ``ValueError`` unless ``(trace_id, parent_span)`` is a
    context the envelope can carry: ids in ``[0, 2**64 - 2]``, and a
    ``parent_span`` only under a ``trace_id``."""
    for name, value in (("trace_id", trace_id), ("parent_span", parent_span)):
        if value is not None and not 0 <= value <= _MAX_WORD:
            raise ValueError(
                f"{name} must be in [0, {_MAX_WORD}], got {value}"
            )
    if parent_span is not None and trace_id is None:
        raise ValueError("parent_span requires a trace_id")


def encode_envelope(
    kind: int,
    body: bytes,
    trace_id: Optional[int] = None,
    parent_span: Optional[int] = None,
) -> bytes:
    """Seal ``body`` under ``kind`` and the trace context, and prefix
    the sealed bytes with their length."""
    if trace_id is None:
        context = _NO_CONTEXT
    else:
        span = 0 if parent_span is None else parent_span + 1
        context = (trace_id + 1).to_bytes(_WORD_BYTES, "big") + span.to_bytes(
            _WORD_BYTES, "big"
        )
    sealed = seal(bytes((kind,)) + context + body)
    if len(sealed) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(sealed)} sealed bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    return len(sealed).to_bytes(_LENGTH_BYTES, "big") + sealed


def decode_envelope(
    buffer: bytes, kinds: Type[IntEnum]
) -> Tuple[Envelope, int]:
    """Open the envelope at the head of ``buffer``; ``kinds`` is the
    dialect's kind enum.  Returns ``(envelope, bytes_consumed)``."""
    if len(buffer) < _LENGTH_BYTES:
        raise FrameTruncated("length prefix incomplete")
    sealed_len = int.from_bytes(buffer[:_LENGTH_BYTES], "big")
    if not _MIN_SEALED <= sealed_len <= MAX_FRAME_BYTES:
        raise FrameCorrupted(
            f"implausible frame length {sealed_len} (outside "
            f"[{_MIN_SEALED}, {MAX_FRAME_BYTES}])"
        )
    end = _LENGTH_BYTES + sealed_len
    if len(buffer) < end:
        raise FrameTruncated(
            f"frame needs {end} bytes, buffer has {len(buffer)}"
        )
    try:
        data = unseal(bytes(buffer[_LENGTH_BYTES:end]))
    except IntegrityError as exc:
        raise FrameCorrupted(f"frame failed its CRC seal: {exc}") from None
    try:
        kind = kinds(data[0])
    except ValueError:
        raise FrameCorrupted(f"unknown frame kind {data[0]}") from None
    trace_word = int.from_bytes(data[1 : 1 + _WORD_BYTES], "big")
    span_word = int.from_bytes(data[1 + _WORD_BYTES : _BODY_START], "big")
    if span_word and not trace_word:
        raise FrameCorrupted("frame carries a parent span without a trace id")
    return (
        Envelope(
            kind,
            trace_word - 1 if trace_word else None,
            span_word - 1 if span_word else None,
            data[_BODY_START:],
        ),
        end,
    )

"""Seeded property tests for the ``repro.net`` wire framing.

Companion to ``test_properties.py``: the frame codec is built from the
same varint/bitio primitives the coding layer ships, so its algebraic
contract is tested in the same style — seeded random sweeps through
``repro.check.generator.derive_rng`` (failures replay exactly), over the
three properties stream transports lean on:

* **round-trip** — every legal frame survives encode → decode, alone
  and concatenated;
* **truncation rejection** — every strict byte-prefix of a frame raises
  ``FrameTruncated`` (so a stream decoder can always wait for more
  bytes, never mis-parse);
* **corruption detection** — every single-bit flip of the wire bytes is
  rejected (CRC-32 catches all single-bit errors), the property the
  fault injector's corruption class turns into "corrupt == lost".
"""

import pytest

from repro.check.generator import derive_rng
from repro.net import (
    Frame,
    FrameDecoder,
    FrameError,
    FrameKind,
    FrameTruncated,
    decode_frame,
    encode_frame,
)

KINDS = list(FrameKind)


def _random_frame(rng) -> Frame:
    kind = rng.choice(KINDS)
    payload = ""
    draws = 0
    if kind in (
        FrameKind.APPEND,
        FrameKind.BROADCAST,
        FrameKind.ECHO,
        FrameKind.READY,
    ):
        payload = "".join(rng.choice("01") for _ in range(rng.randrange(1, 40)))
        draws = rng.randrange(2)
    # Half of the sweep carries a trace context, so every
    # property below (round-trip, chunked streams, truncation, bit-flip
    # rejection) also covers traced frames.
    trace_id = None
    parent_span = None
    if rng.randrange(2):
        trace_id = rng.randrange(0, 2**63)
        if rng.randrange(2):
            parent_span = rng.randrange(0, 2**63)
    return Frame(
        kind=kind,
        party=rng.randrange(0, 64),
        round_index=rng.randrange(0, 4096),
        coin_draws=draws,
        payload=payload,
        trace_id=trace_id,
        parent_span=parent_span,
    )


@pytest.mark.parametrize("trial", range(40))
def test_round_trip(trial):
    rng = derive_rng("framing-round-trip", trial)
    frame = _random_frame(rng)
    wire = encode_frame(frame)
    decoded, consumed = decode_frame(wire)
    assert decoded == frame
    assert consumed == len(wire)


@pytest.mark.parametrize("trial", range(10))
def test_concatenated_stream_reassembles_at_any_chunking(trial):
    rng = derive_rng("framing-stream", trial)
    frames = [_random_frame(rng) for _ in range(rng.randrange(2, 9))]
    wire = b"".join(encode_frame(f) for f in frames)
    cuts = sorted(rng.randrange(len(wire) + 1) for _ in range(5))
    decoder = FrameDecoder()
    seen = []
    previous = 0
    for cut in cuts + [len(wire)]:
        seen.extend(decoder.feed(wire[previous:cut]))
        previous = cut
    assert seen == frames
    assert decoder.pending_bytes == 0


@pytest.mark.parametrize("trial", range(15))
def test_every_strict_prefix_is_truncated(trial):
    rng = derive_rng("framing-truncation", trial)
    wire = encode_frame(_random_frame(rng))
    for cut in range(len(wire)):
        with pytest.raises(FrameTruncated):
            decode_frame(wire[:cut])


@pytest.mark.parametrize("trial", range(15))
def test_every_single_bit_flip_is_rejected(trial):
    rng = derive_rng("framing-corruption", trial)
    wire = encode_frame(_random_frame(rng))
    for bit in range(len(wire) * 8):
        mangled = bytearray(wire)
        mangled[bit // 8] ^= 0x80 >> (bit % 8)
        with pytest.raises(FrameError):
            frame, consumed = decode_frame(bytes(mangled))
            # A prefix-bit flip may yield a shorter self-consistent
            # claim; it must then at least fail to cover the datagram.
            assert consumed == len(wire), "flip escaped detection"

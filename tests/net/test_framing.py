"""Unit tests for the blackboard wire dialect: frames, streams, and
rejection.

The contract has three legs: a lossless round-trip for every legal
frame, ``FrameTruncated`` (and only that) on short buffers so stream
reassembly can wait for more bytes, and ``FrameCorrupted`` on anything
mangled — the envelope's CRC-32 seal guarantees every single-bit wire
error is detected, which is what the fault injector's corruption class
relies on.  The seeded exhaustive sweeps live in
``tests/coding/test_framing_properties.py``; these are the pinned,
hand-written cases.
"""

import pytest

from repro.net import (
    Frame,
    FrameCorrupted,
    FrameDecoder,
    FrameError,
    FrameKind,
    FrameTruncated,
    decode_frame,
    encode_frame,
    pack_bits,
    unpack_bits,
)
from repro.net.envelope import MAX_FRAME_BYTES, encode_envelope
from repro.net.stream import StreamDecoder

SAMPLE_FRAMES = [
    Frame(kind=FrameKind.HELLO, party=0, round_index=0),
    Frame(kind=FrameKind.WELCOME, party=3, round_index=17),
    Frame(
        kind=FrameKind.APPEND,
        party=2,
        round_index=5,
        coin_draws=1,
        payload="10110",
    ),
    Frame(
        kind=FrameKind.BROADCAST,
        party=7,
        round_index=1023,
        coin_draws=0,
        payload="0" * 200,
    ),
    Frame(kind=FrameKind.SYNC, party=1, round_index=2),
    Frame(kind=FrameKind.BYE, party=4),
    Frame(kind=FrameKind.ERROR, party=5, round_index=9),
]


class TestPackBits:
    def test_round_trip_multiple_of_eight(self):
        bits = "10100101" * 3
        assert unpack_bits(pack_bits(bits)) == bits

    def test_padding_is_zero(self):
        packed = pack_bits("111")
        assert unpack_bits(packed) == "11100000"

    def test_empty(self):
        assert pack_bits("") == b""
        assert unpack_bits(b"") == ""


class TestFrameRoundTrip:
    @pytest.mark.parametrize(
        "frame", SAMPLE_FRAMES, ids=[f.kind.name for f in SAMPLE_FRAMES]
    )
    def test_encode_decode(self, frame):
        wire = encode_frame(frame)
        decoded, consumed = decode_frame(wire)
        assert decoded == frame
        assert consumed == len(wire)

    def test_back_to_back_frames_consume_exactly(self):
        wire = b"".join(encode_frame(f) for f in SAMPLE_FRAMES)
        seen = []
        while wire:
            frame, consumed = decode_frame(wire)
            seen.append(frame)
            wire = wire[consumed:]
        assert seen == SAMPLE_FRAMES

    def test_frame_field_validation(self):
        with pytest.raises(ValueError):
            Frame(kind=FrameKind.APPEND, party=-1)
        with pytest.raises(ValueError):
            Frame(kind=FrameKind.APPEND, round_index=-2)
        with pytest.raises(ValueError):
            Frame(kind=FrameKind.APPEND, payload="01x")


class TestRejection:
    def test_empty_buffer_truncated(self):
        with pytest.raises(FrameTruncated):
            decode_frame(b"")

    def test_every_proper_prefix_is_truncated(self):
        wire = encode_frame(SAMPLE_FRAMES[2])
        for cut in range(len(wire)):
            with pytest.raises(FrameTruncated):
                decode_frame(wire[:cut])

    def test_every_single_bit_flip_is_rejected(self):
        wire = encode_frame(SAMPLE_FRAMES[3])
        for bit in range(len(wire) * 8):
            mangled = bytearray(wire)
            mangled[bit // 8] ^= 0x80 >> (bit % 8)
            with pytest.raises(FrameError):
                frame, consumed = decode_frame(bytes(mangled))
                # A flip confined to the length prefix may still parse
                # as a (differently-sized) valid claim; it must then at
                # least fail to account for the full datagram.
                assert consumed == len(wire), "flip escaped detection"

    def test_implausible_length_prefix_is_corrupt(self):
        # Rejected from the prefix alone, before waiting for (or
        # allocating) the claimed bytes.
        prefix = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(FrameCorrupted):
            decode_frame(prefix + b"\x00" * 64)

    def test_garbage_prefix_is_corrupt(self):
        # 0xFFFFFFFF claims far more than the frame bound, and a zero
        # length is shorter than any envelope.
        with pytest.raises(FrameCorrupted):
            decode_frame(b"\xff" * 16)
        with pytest.raises(FrameCorrupted):
            decode_frame(b"\x00" * 16)

    def test_trailing_body_bytes_are_corrupt(self):
        # The body must end within a byte of its last field, with zero
        # padding: a trailing byte or a set padding bit is corruption.
        body = pack_bits("1111")
        for bad in (body + b"\x00", pack_bits("11111")):
            with pytest.raises(FrameCorrupted):
                decode_frame(encode_envelope(FrameKind.HELLO, bad))

    def test_checksum_mismatch_is_corrupt(self):
        wire = bytearray(encode_frame(SAMPLE_FRAMES[0]))
        wire[-1] ^= 0xFF  # mangle the CRC itself
        with pytest.raises(FrameCorrupted):
            decode_frame(bytes(wire))

    def test_unknown_kind_is_corrupt(self):
        # A well-sealed envelope whose kind byte is no FrameKind.
        body = pack_bits("1111")  # party/round/draws/payload-len + 1
        assert decode_frame(encode_envelope(FrameKind.HELLO, body))
        with pytest.raises(FrameCorrupted):
            decode_frame(encode_envelope(15, body))


class TestFrameDecoder:
    def test_byte_at_a_time_reassembly(self):
        wire = b"".join(encode_frame(f) for f in SAMPLE_FRAMES)
        decoder = FrameDecoder()
        seen = []
        for index in range(len(wire)):
            seen.extend(decoder.feed(wire[index : index + 1]))
        assert seen == SAMPLE_FRAMES
        assert decoder.pending_bytes == 0

    def test_chunk_boundaries_do_not_matter(self):
        wire = b"".join(encode_frame(f) for f in SAMPLE_FRAMES)
        for chunk in (3, 7, 64, len(wire)):
            decoder = FrameDecoder()
            seen = []
            for start in range(0, len(wire), chunk):
                seen.extend(decoder.feed(wire[start : start + chunk]))
            assert seen == SAMPLE_FRAMES

    def test_one_chunk_is_decoded_from_one_buffer(self):
        # Many frames in one chunk are decoded through views of a single
        # buffer, not from a fresh copy of the remainder per frame.
        buffers = []

        def spy(buffer):
            buffers.append(buffer.obj)
            return decode_frame(buffer)

        frames = SAMPLE_FRAMES * 8
        decoder = StreamDecoder(spy)
        assert decoder.feed(b"".join(encode_frame(f) for f in frames)) == frames
        assert len(buffers) == len(frames)
        assert len({id(obj) for obj in buffers}) == 1
        assert decoder.pending_bytes == 0

    @pytest.mark.parametrize("consumed", [0, -1, 1 << 20])
    def test_a_decode_that_does_not_advance_is_refused(self, consumed):
        # A decode must move the offset forward within the buffer;
        # otherwise feed would re-decode the same bytes forever.
        decoder = StreamDecoder(
            lambda view: (decode_frame(view)[0], consumed)
        )
        with pytest.raises(FrameError, match="stream offset"):
            decoder.feed(encode_frame(SAMPLE_FRAMES[0]) * 2)

    def test_corruption_propagates_on_streams(self):
        wire = bytearray(encode_frame(SAMPLE_FRAMES[2]))
        wire[-2] ^= 0x01
        decoder = FrameDecoder()
        with pytest.raises(FrameCorrupted):
            decoder.feed(bytes(wire))

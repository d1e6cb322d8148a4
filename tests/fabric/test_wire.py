"""Fabric wire dialect: roundtrips, typed corruption, the strict
policy."""

import pytest

from repro.fabric.wire import (
    FabricFrame,
    FabricFrameDecoder,
    FabricFrameKind,
    decode_fabric_frame,
    encode_fabric_frame,
)
from repro.net.envelope import MAX_FRAME_BYTES, encode_envelope
from repro.net.errors import FrameCorrupted, FrameError, FrameTruncated

_LEN = 4


def _roundtrip(frame):
    wire = encode_fabric_frame(frame)
    decoded, consumed = decode_fabric_frame(wire)
    assert consumed == len(wire)
    return decoded


class TestRoundtrip:
    def test_every_kind_roundtrips(self):
        for kind in FabricFrameKind:
            frame = FabricFrame(
                kind,
                {"cell": 3, "digest": "ab" * 32},
                payload=b"\x00\x01payload\xff",
            )
            decoded = _roundtrip(frame)
            assert decoded == frame
            assert decoded.kind is kind

    def test_empty_fields_and_payload(self):
        decoded = _roundtrip(FabricFrame(FabricFrameKind.HEARTBEAT))
        assert decoded.fields == {}
        assert decoded.payload == b""

    def test_nested_header_survives(self):
        fields = {
            "key": {"experiment": "E2", "params": {"k": 4}, "seed": None},
            "keys": [1, 2, 3],
        }
        decoded = _roundtrip(FabricFrame(FabricFrameKind.GET, fields))
        assert decoded.fields == fields

    def test_unicode_header(self):
        decoded = _roundtrip(
            FabricFrame(FabricFrameKind.ERROR, {"message": "µ-distribution"})
        )
        assert decoded.fields["message"] == "µ-distribution"


class TestTypedFailures:
    def test_truncated_prefix(self):
        with pytest.raises(FrameTruncated):
            decode_fabric_frame(b"\x00\x00")

    def test_truncated_body(self):
        wire = encode_fabric_frame(FabricFrame(FabricFrameKind.LEASE, {"cell": 1}))
        for cut in range(_LEN, len(wire)):
            with pytest.raises(FrameTruncated):
                decode_fabric_frame(wire[:cut])

    def test_corrupt_byte_fails_crc(self):
        wire = bytearray(
            encode_fabric_frame(
                FabricFrame(FabricFrameKind.RESULT, {"cell": 2}, b"payload")
            )
        )
        wire[len(wire) // 2] ^= 0x40
        with pytest.raises(FrameCorrupted):
            decode_fabric_frame(bytes(wire))

    def test_absurd_length_prefix_is_corruption_not_allocation(self):
        wire = (MAX_FRAME_BYTES + 1).to_bytes(_LEN, "big") + b"x"
        with pytest.raises(FrameCorrupted):
            decode_fabric_frame(wire)

    def test_oversized_frame_refused_at_encode(self):
        with pytest.raises(FrameError):
            encode_fabric_frame(
                FabricFrame(
                    FabricFrameKind.RESULT, {}, b"\x00" * (MAX_FRAME_BYTES + 1)
                )
            )

    def test_non_object_header_is_corrupt(self):
        header = b"[1,2]"
        body = len(header).to_bytes(_LEN, "big") + header
        wire = encode_envelope(FabricFrameKind.GET, body)
        with pytest.raises(FrameCorrupted):
            decode_fabric_frame(wire)

    def test_every_single_bit_flip_is_rejected(self):
        for kind in FabricFrameKind:
            wire = encode_fabric_frame(
                FabricFrame(kind, {"cell": int(kind)}, b"pay", 7, 3)
            )
            for bit in range(len(wire) * 8):
                mangled = bytearray(wire)
                mangled[bit // 8] ^= 0x80 >> (bit % 8)
                with pytest.raises(FrameError):
                    decode_fabric_frame(bytes(mangled))


class TestStrictPolicy:
    def test_unknown_kind_is_corrupt(self):
        body = (2).to_bytes(_LEN, "big") + b"{}"
        assert decode_fabric_frame(encode_envelope(FabricFrameKind.BYE, body))
        with pytest.raises(FrameCorrupted):
            decode_fabric_frame(encode_envelope(200, body))

    def test_header_overrunning_its_body_is_corrupt(self):
        for body in (b"", b"\x00\x00", (9).to_bytes(_LEN, "big") + b"{}"):
            with pytest.raises(FrameCorrupted):
                decode_fabric_frame(encode_envelope(FabricFrameKind.GET, body))

    def test_trace_context_rides_the_envelope(self):
        plain = FabricFrame(FabricFrameKind.LEASE, {"cell": 0}, b"x")
        for trace_id, parent_span in ((0, None), (5, 0), (2**63 - 1, 2**63 - 1)):
            traced = FabricFrame(
                plain.kind, plain.fields, plain.payload, trace_id, parent_span
            )
            assert _roundtrip(traced) == traced
            # A frame's length never depends on its trace context.
            assert len(encode_fabric_frame(traced)) == len(
                encode_fabric_frame(plain)
            )


class TestVersionTolerance:
    """The header is a plain JSON object: keys a receiver does not read
    pass through untouched."""

    def test_unknown_header_keys_survive(self):
        decoded = _roundtrip(
            FabricFrame(
                FabricFrameKind.LEASE,
                {"cell": 0, "key": {}, "added_in_v99": [1, {"x": 2}]},
            )
        )
        assert decoded.fields["added_in_v99"] == [1, {"x": 2}]


class TestDecoder:
    def test_byte_at_a_time_stream(self):
        frames = [
            FabricFrame(FabricFrameKind.HELLO, {"worker": 0}),
            FabricFrame(FabricFrameKind.LEASE, {"cell": 5}, b"x" * 100),
            FabricFrame(FabricFrameKind.BYE),
        ]
        stream = b"".join(encode_fabric_frame(f) for f in frames)
        decoder = FabricFrameDecoder()
        got = []
        for i in range(len(stream)):
            got.extend(decoder.feed(stream[i : i + 1]))
        assert got == frames
        assert decoder.pending_bytes == 0

    def test_multiple_frames_in_one_chunk(self):
        frames = [
            FabricFrame(FabricFrameKind.STEAL, {"worker": i}) for i in range(4)
        ]
        stream = b"".join(encode_fabric_frame(f) for f in frames)
        decoder = FabricFrameDecoder()
        assert decoder.feed(stream) == frames

    def test_corruption_mid_stream_raises(self):
        good = encode_fabric_frame(FabricFrame(FabricFrameKind.HELLO))
        bad = bytearray(encode_fabric_frame(FabricFrame(FabricFrameKind.BYE)))
        bad[-1] ^= 0x01
        decoder = FabricFrameDecoder()
        assert len(decoder.feed(good)) == 1
        with pytest.raises(FrameCorrupted):
            decoder.feed(bytes(bad))


class TestLeaseContext:
    def test_a_traced_lease_carries_its_context_in_the_envelope(self):
        from repro.fabric.core import CoordinatorCore, WorkerCore
        from repro.obs import RecordingTracer, using_tracer
        from repro.store.keys import ResultKey
        from repro.store.sweep import encode_result

        keys = [ResultKey(experiment="FAKE", params={"i": 0}, seed=None,
                          version="v-test")]
        coordinator_trace = RecordingTracer(trace_id=0x5EED)
        with using_tracer(coordinator_trace):
            core = CoordinatorCore(keys, store=None, num_workers=1)
            with coordinator_trace.span("sweep"):
                _, lease = core.on_frame(
                    0, FabricFrame(FabricFrameKind.HELLO), 0.0
                )
        (sweep,) = [
            e for e in coordinator_trace.named("sweep") if e.kind == "begin"
        ]
        wire = encode_fabric_frame(lease)
        lease, _ = decode_fabric_frame(wire)
        assert lease.kind == FabricFrameKind.LEASE
        assert (lease.trace_id, lease.parent_span) == (0x5EED, sweep.span)
        assert "trace" not in lease.fields and "span" not in lease.fields
        # An untraced worker process records under the lease's context
        # and ships the events home in the RESULT.
        worker = WorkerCore(0, compute=lambda key: encode_result(key.params))
        (result,) = worker.on_frame(lease)
        (cell,) = [e for e in result.fields["trace"] if e["kind"] == "begin"]
        assert (cell["trace"], cell["parent"]) == (0x5EED, sweep.span)

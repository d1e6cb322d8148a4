"""Golden wire bytes: one pinned frame of every kind, in both dialects.

Blackboard frames (:mod:`repro.net.framing`) and fabric frames
(:mod:`repro.fabric.wire`) ride one sealed envelope
(:mod:`repro.net.envelope`), and the format is frozen: a change to it
is a deliberate re-recording of these pins.  Each kind is pinned with
and without a trace context; the two differ only in the context words,
so a frame's length never depends on the context, and neither does the
fault injector (it draws a fixed number of variates per frame, whatever
the frame's length).  Each pin also decodes back to the frame it came
from.
"""

import pytest

from repro.fabric.wire import (
    FabricFrame,
    FabricFrameKind,
    decode_fabric_frame,
    encode_fabric_frame,
)
from repro.net.framing import Frame, FrameKind, decode_frame, encode_frame

#: The trace context both frames of a pair differ by.
_CONTEXT = dict(trace_id=0x1F2E3D4C, parent_span=17)

#: kind name -> (hex without trace context, hex with trace context).
BLACKBOARD_HEX = {
    "HELLO": (
        "00000017000000000000000000000000000000000066c072cbc7fe",
        "0000001700000000001f2e3d4d000000000000001266c0838d1c3d",
    ),
    "WELCOME": (
        "000000170100000000000000000000000000000000664aa8442d98",
        "0000001701000000001f2e3d4d0000000000000012664a5902f65b",
    ),
    "APPEND": (
        "00000017020000000000000000000000000000000066b858a13801",
        "0000001702000000001f2e3d4d000000000000001266b8a9e7e3c2",
    ),
    "BROADCAST": (
        "0000001803000000000000000000000000000000006644a0aee5483c",
        "0000001803000000001f2e3d4d00000000000000126644a0ac799ded",
    ),
    "SYNC": (
        "0000001804000000000000000000000000000000006696c0b11d286a",
        "0000001804000000001f2e3d4d00000000000000126696c0b381fdbb",
    ),
    "BYE": (
        "0000001805000000000000000000000000000000006646b00547a70f",
        "0000001805000000001f2e3d4d00000000000000126646b007db72de",
    ),
    "ERROR": (
        "000000180600000000000000000000000000000000669ec0b30ad4ee",
        "0000001806000000001f2e3d4d0000000000000012669ec0b196013f",
    ),
    "ECHO": (
        "00000019070000000000000000000000000000000066422c8091395a2c",
        "0000001907000000001f2e3d4d000000000000001266422c8060ef24bb",
    ),
    "READY": (
        "0000001808000000000000000000000000000000006688b208613a4e",
        "0000001808000000001f2e3d4d00000000000000126688b20afdef9f",
    ),
}

FABRIC_HEX = {
    "HELLO": (
        "0000002e0000000000000000000000000000000000000000157b2263656c6c22"
        "3a302c22776f726b6572223a317d6ee9b41f",
        "0000002e00000000001f2e3d4d0000000000000012000000157b2263656c6c22"
        "3a302c22776f726b6572223a317d79b56d1e",
    ),
    "WELCOME": (
        "0000002f0100000000000000000000000000000000000000157b2263656c6c22"
        "3a312c22776f726b6572223a317d0085781c41",
        "0000002f01000000001f2e3d4d0000000000000012000000157b2263656c6c22"
        "3a312c22776f726b6572223a317d00f268700e",
    ),
    "LEASE": (
        "000000300200000000000000000000000000000000000000157b2263656c6c22"
        "3a322c22776f726b6572223a317d0001cb5ef4de",
        "0000003002000000001f2e3d4d0000000000000012000000157b2263656c6c22"
        "3a322c22776f726b6572223a317d00012d4ab8b3",
    ),
    "RESULT": (
        "000000310300000000000000000000000000000000000000157b2263656c6c22"
        "3a332c22776f726b6572223a317d0001025052965b",
        "0000003103000000001f2e3d4d0000000000000012000000157b2263656c6c22"
        "3a332c22776f726b6572223a317d00010263b79ff2",
    ),
    "STEAL": (
        "000000320400000000000000000000000000000000000000157b2263656c6c22"
        "3a342c22776f726b6572223a317d00010203337ddc2e",
        "0000003204000000001f2e3d4d0000000000000012000000157b2263656c6c22"
        "3a342c22776f726b6572223a317d000102039c44226b",
    ),
    "GET": (
        "000000330500000000000000000000000000000000000000157b2263656c6c22"
        "3a352c22776f726b6572223a317d00010203048fa1e603",
        "0000003305000000001f2e3d4d0000000000000012000000157b2263656c6c22"
        "3a352c22776f726b6572223a317d000102030489b86ae2",
    ),
    "SERVE": (
        "000000340600000000000000000000000000000000000000157b2263656c6c22"
        "3a362c22776f726b6572223a317d000102030405de6a5893",
        "0000003406000000001f2e3d4d0000000000000012000000157b2263656c6c22"
        "3a362c22776f726b6572223a317d000102030405096193f1",
    ),
    "HEARTBEAT": (
        "000000350700000000000000000000000000000000000000157b2263656c6c22"
        "3a372c22776f726b6572223a317d00010203040506b886f64b",
        "0000003507000000001f2e3d4d0000000000000012000000157b2263656c6c22"
        "3a372c22776f726b6572223a317d000102030405061bedfdf4",
    ),
    "ERROR": (
        "000000360800000000000000000000000000000000000000157b2263656c6c22"
        "3a382c22776f726b6572223a317d0001020304050607311e70b5",
        "0000003608000000001f2e3d4d0000000000000012000000157b2263656c6c22"
        "3a382c22776f726b6572223a317d00010203040506076a63b5a3",
    ),
    "BYE": (
        "000000370900000000000000000000000000000000000000157b2263656c6c22"
        "3a392c22776f726b6572223a317d000102030405060708baf5a99f",
        "0000003709000000001f2e3d4d0000000000000012000000157b2263656c6c22"
        "3a392c22776f726b6572223a317d0001020304050607084e7a610b",
    ),
}


def _blackboard_frames(kind):
    fields = dict(
        party=2,
        round_index=5,
        coin_draws=int(kind) % 2,
        payload="1011001"[: int(kind)],
    )
    return Frame(kind, **fields), Frame(kind, **fields, **_CONTEXT)


def _fabric_frames(kind):
    fields = ({"worker": 1, "cell": int(kind)}, bytes(range(int(kind))))
    return (
        FabricFrame(kind, *fields),
        FabricFrame(kind, *fields, **_CONTEXT),
    )


def test_every_kind_is_pinned():
    assert sorted(BLACKBOARD_HEX) == sorted(k.name for k in FrameKind)
    assert sorted(FABRIC_HEX) == sorted(k.name for k in FabricFrameKind)


@pytest.mark.parametrize("kind", list(FrameKind), ids=lambda k: k.name)
def test_blackboard_frame_bytes(kind):
    plain, traced = _blackboard_frames(kind)
    for frame, pinned in zip((plain, traced), BLACKBOARD_HEX[kind.name]):
        wire = encode_frame(frame)
        assert wire.hex() == pinned
        assert decode_frame(bytes.fromhex(pinned)) == (frame, len(wire))


@pytest.mark.parametrize("kind", list(FabricFrameKind), ids=lambda k: k.name)
def test_fabric_frame_bytes(kind):
    for frame, pinned in zip(_fabric_frames(kind), FABRIC_HEX[kind.name]):
        wire = encode_fabric_frame(frame)
        assert wire.hex() == pinned
        assert decode_fabric_frame(bytes.fromhex(pinned)) == (frame, len(wire))

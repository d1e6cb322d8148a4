"""Golden wire bytes: one pinned frame of every kind, in both codecs.

The blackboard codec (:mod:`repro.net.framing`) and the fabric codec
(:mod:`repro.fabric.wire`) are frozen formats — the fault injector
draws corrupt-bit positions from the encoded length, so even a
length-preserving re-encoding would change every faulted schedule.
These pins hold the exact hex of one frame per kind (blackboard frames
with and without trace context) and check each decodes back to the
frame it came from.
"""

import pytest

from repro.fabric.wire import (
    FabricFrame,
    FabricFrameKind,
    decode_fabric_frame,
    encode_fabric_frame,
)
from repro.net.framing import Frame, FrameKind, decode_frame, encode_frame

#: kind name -> (hex without trace context, hex with trace context).
BLACKBOARD_HEX = {
    "HELLO": ("40066c5387980a", "23066d80000007cb8f5342402ded47c1"),
    "WELCOME": ("501664a030ad0b9b", "231664ac0000003e5c7a9a1249e32235"),
    "APPEND": ("50266b80a830d20c", "23266b980000007cb8f534248d26267f"),
    "BROADCAST": ("5036644a483f461d", "2436644ac0000003e5c7a9a12086720321"),
    "SYNC": ("5046696c7b6dd5fd", "2446696d80000007cb8f53424021cd40ac"),
    "BYE": ("6056646b0006f55ef2", "2456646b30000000f971ea6848a8596bc2"),
    "ERROR": ("506669ecae98103d", "246669ec60000001f2e3d4d090204b3e98"),
    "ECHO": ("60766422c812c34f02", "25766422cb0000000f971ea684802d8ae728"),
    "READY": ("6086688b204cabcd2b", "2486688b2c0000003e5c7a9a12daa3b0f0"),
}

FABRIC_HEX = {
    "HELLO": "0000002200000000157b2263656c6c223a302c22776f726b6572223a317d"
    "00000000cda4fcbd",
    "WELCOME": "0000002301000000157b2263656c6c223a312c22776f726b6572223a31"
    "7d00000001009fb1eb31",
    "LEASE": "0000002402000000157b2263656c6c223a322c22776f726b6572223a317d"
    "0000000200019c4b5e85",
    "RESULT": "0000002503000000157b2263656c6c223a332c22776f726b6572223a317d"
    "000000030001024a6b7e80",
    "STEAL": "0000002604000000157b2263656c6c223a342c22776f726b6572223a317d"
    "000000040001020382b1bba3",
    "GET": "0000002705000000157b2263656c6c223a352c22776f726b6572223a317d"
    "00000005000102030489d8c8d0",
    "SERVE": "0000002806000000157b2263656c6c223a362c22776f726b6572223a317d"
    "0000000600010203040507df4940",
    "HEARTBEAT": "0000002907000000157b2263656c6c223a372c22776f726b6572223a"
    "317d000000070001020304050680c5a6c7",
    "ERROR": "0000002a08000000157b2263656c6c223a382c22776f726b6572223a317d"
    "000000080001020304050607d53d4fef",
    "BYE": "0000002b09000000157b2263656c6c223a392c22776f726b6572223a317d"
    "00000009000102030405060708aaef6319",
}


def _blackboard_frames(kind):
    fields = dict(
        party=2,
        round_index=5,
        coin_draws=int(kind) % 2,
        payload="1011001"[: int(kind)],
    )
    return (
        Frame(kind, **fields),
        Frame(kind, **fields, trace_id=0x1F2E3D4C, parent_span=17),
    )


def _fabric_frame(kind):
    return FabricFrame(
        kind, {"worker": 1, "cell": int(kind)}, bytes(range(int(kind)))
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
    frame = _fabric_frame(kind)
    wire = encode_fabric_frame(frame)
    assert wire.hex() == FABRIC_HEX[kind.name]
    assert decode_fabric_frame(wire) == (frame, len(wire))

"""Trace-context propagation over the wire: the envelope's context
field and its safety properties.

The contract (docs/observability.md, *Distributed trace propagation*):

* a frame's ``(trace_id, parent_span)`` survives encode → decode;
* the context field has one width, so a traced frame is exactly as long
  as the same frame untraced, whatever the trace id;
* decoding is strict: a context naming a span without a trace is
  corrupt, and an id the field cannot hold is refused at construction;
* corruption can never mis-parent a span: every single-bit flip of a
  context-bearing frame is rejected before the context is parsed;
* tracing the networked runtime is observation-only — traced and
  untraced executions return bit-identical ``ProtocolRun``s, including
  under the full chaos fault plan.
"""

import random
from dataclasses import replace

import pytest

from repro.check.generator import derive_rng
from repro.coding.bitio import BitWriter
from repro.coding.integrity import seal
from repro.coding.varint import encode_elias_gamma
from repro.core.runner import run_protocol
from repro.net import (
    Frame,
    FrameCorrupted,
    FrameError,
    FrameKind,
    decode_frame,
    encode_frame,
    pack_bits,
    run_networked,
)
from repro.net.faults import chaos_plan, recoverable_fault_plans
from repro.obs import RecordingTracer, using_tracer
from repro.protocols import protocol_case

TRACED = Frame(
    kind=FrameKind.APPEND,
    party=2,
    round_index=5,
    coin_draws=1,
    payload="10110",
    trace_id=0x1234_5678_9ABC,
    parent_span=42,
)


def _body(frame: Frame) -> bytes:
    """The blackboard body of ``frame``, rebuilt from the coding
    primitives."""
    writer = BitWriter()
    for value in (
        frame.party, frame.round_index, frame.coin_draws, len(frame.payload)
    ):
        writer.write_bits(encode_elias_gamma(value + 1))
    writer.write_bits(frame.payload)
    return pack_bits(writer.getvalue())


def _hand_sealed(frame: Frame, trace_word: int, span_word: int) -> bytes:
    """Wire bytes for ``frame`` with arbitrary raw context words, built
    without the envelope module (crafting contexts an encoder never
    emits)."""
    sealed = seal(
        bytes([frame.kind])
        + trace_word.to_bytes(8, "big")
        + span_word.to_bytes(8, "big")
        + _body(frame)
    )
    return len(sealed).to_bytes(4, "big") + sealed


class TestContextRoundTrip:
    def test_full_context(self):
        decoded, consumed = decode_frame(encode_frame(TRACED))
        assert decoded == TRACED
        assert decoded.trace_id == TRACED.trace_id
        assert decoded.parent_span == TRACED.parent_span

    def test_trace_id_only(self):
        frame = replace(TRACED, parent_span=None)
        decoded, _ = decode_frame(encode_frame(frame))
        assert decoded == frame
        assert decoded.parent_span is None

    def test_zero_values_round_trip(self):
        frame = replace(TRACED, trace_id=0, parent_span=0)
        decoded, _ = decode_frame(encode_frame(frame))
        assert decoded.trace_id == 0
        assert decoded.parent_span == 0

    def test_parent_span_requires_trace_id(self):
        with pytest.raises(ValueError):
            Frame(kind=FrameKind.SYNC, parent_span=7)


class TestFixedWidthContext:
    def test_hand_sealed_layout_matches_the_encoder(self):
        assert encode_frame(TRACED) == _hand_sealed(
            TRACED, TRACED.trace_id + 1, TRACED.parent_span + 1
        )
        untraced = replace(TRACED, trace_id=None, parent_span=None)
        assert encode_frame(untraced) == _hand_sealed(untraced, 0, 0)

    def test_length_never_depends_on_the_context(self):
        untraced = replace(TRACED, trace_id=None, parent_span=None)
        lengths = {
            len(encode_frame(replace(TRACED, trace_id=t, parent_span=p)))
            for t, p in (
                (None, None), (0, None), (0, 0), (7, None),
                (2**63 - 1, 2**63 - 1), (2**64 - 2, 2**64 - 2),
            )
        }
        assert lengths == {len(encode_frame(untraced))}

    def test_ids_the_field_cannot_hold_are_refused(self):
        for trace_id, parent_span in ((2**64 - 1, None), (-1, None), (1, -1)):
            with pytest.raises(ValueError):
                replace(TRACED, trace_id=trace_id, parent_span=parent_span)


class TestCorruptionNeverMisparents:
    @pytest.mark.parametrize("trial", range(5))
    def test_every_bit_flip_of_a_context_frame_is_rejected(self, trial):
        rng = derive_rng("trace-context-corruption", trial)
        frame = Frame(
            kind=FrameKind.APPEND,
            party=rng.randrange(8),
            round_index=rng.randrange(64),
            coin_draws=rng.randrange(2),
            payload="".join(
                rng.choice("01") for _ in range(rng.randrange(1, 24))
            ),
            trace_id=rng.randrange(2**63),
            parent_span=rng.randrange(2**63),
        )
        wire = encode_frame(frame)
        for bit in range(len(wire) * 8):
            mangled = bytearray(wire)
            mangled[bit // 8] ^= 0x80 >> (bit % 8)
            # FrameCorrupted or FrameTruncated — never a successful
            # decode that could attach a span to the wrong parent.
            with pytest.raises(FrameError):
                decode_frame(bytes(mangled))

    def test_corrupt_extension_is_framecorrupted_not_misparse(self):
        # A context block the CRC vouches for but no encoder emits — a
        # parent span under no trace — must be refused, not handed back
        # as a frame with a half context.
        assert decode_frame(_hand_sealed(TRACED, 0, 0))[0] == replace(
            TRACED, trace_id=None, parent_span=None
        )
        with pytest.raises(FrameCorrupted):
            decode_frame(_hand_sealed(TRACED, 0, TRACED.parent_span + 1))


class TestTracedEqualsUntraced:
    def _runs(self, name, *, faults=None, seed=23):
        case = protocol_case(name)
        inputs = case.input_tuples()[-1]
        untraced = run_networked(
            case.build(), inputs, seed=seed, faults=faults
        )
        tracer = RecordingTracer()
        with using_tracer(tracer):
            traced = run_networked(
                case.build(), inputs, seed=seed, faults=faults
            )
        assert tracer.events, "tracer saw no events — nothing propagated"
        return untraced, traced

    def test_fault_free(self):
        untraced, traced = self._runs("sequential-and")
        assert traced == untraced

    def test_randomized_protocol(self):
        untraced, traced = self._runs("functional-random")
        assert traced == untraced

    def test_under_chaos_plan(self):
        untraced, traced = self._runs(
            "sequential-and", faults=chaos_plan(7)
        )
        assert traced == untraced

    def test_under_every_recoverable_plan(self):
        for plan in recoverable_fault_plans(11).values():
            untraced, traced = self._runs("sequential-and", faults=plan)
            assert traced == untraced

    def test_traced_matches_in_memory_reference(self):
        case = protocol_case("functional-random")
        inputs = case.input_tuples()[-1]
        reference = run_protocol(
            case.build(), inputs, rng=random.Random(23)
        )
        _, traced = self._runs("functional-random")
        assert traced == reference

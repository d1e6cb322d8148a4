"""Tests for the concrete protocol runner."""

import random

import pytest

from repro.core import (
    ProtocolViolation,
    Transcript,
    run_protocol,
)
from repro.information import DiscreteDistribution
from repro.protocols import (
    FunctionalProtocol,
    NoisySequentialAndProtocol,
    SequentialAndProtocol,
)


class TestRunProtocol:
    def test_deterministic_run(self):
        p = SequentialAndProtocol(4)
        run = run_protocol(p, (1, 1, 0, 1))
        assert run.output == 0
        assert run.bits_communicated == 3      # players 0, 1, 2 speak
        assert run.rounds == 3
        assert run.transcript.bit_string() == "110"

    def test_all_ones_run(self):
        p = SequentialAndProtocol(4)
        run = run_protocol(p, (1, 1, 1, 1))
        assert run.output == 1
        assert run.bits_communicated == 4

    def test_bits_match_transcript(self):
        p = SequentialAndProtocol(3)
        run = run_protocol(p, (1, 0, 1))
        assert run.bits_communicated == run.transcript.bits_written

    def test_wrong_input_count(self):
        p = SequentialAndProtocol(3)
        with pytest.raises(ProtocolViolation):
            run_protocol(p, (1, 1))

    def test_randomized_requires_rng(self):
        p = NoisySequentialAndProtocol(3, 0.1)
        with pytest.raises(ProtocolViolation, match="randomness"):
            run_protocol(p, (1, 1, 1))

    def test_randomized_with_rng(self):
        p = NoisySequentialAndProtocol(3, 0.1)
        run = run_protocol(p, (1, 1, 1), rng=random.Random(0))
        assert run.output in (0, 1)
        assert run.bits_communicated == 3

    def test_non_halting_protocol_detected(self):
        p = FunctionalProtocol(
            1,
            next_speaker=lambda board: 0,   # never halts
            message_distribution=lambda pl, x, board: (
                DiscreteDistribution.point_mass("0")
            ),
            output=lambda board: None,
        )
        with pytest.raises(ProtocolViolation, match="did not halt"):
            run_protocol(p, (0,), max_messages=100)

    def test_exhaustion_is_atomic(self):
        """max_messages exhaustion leaves nothing partial behind: no
        success counters, no ``run_complete`` trace event — only the
        per-message events of the rounds that did execute.  The
        networked PartyClient's hang guard is built on this contract
        (see ``repro.net.client``), so it is pinned here."""
        from repro.obs import (
            REGISTRY,
            RecordingTracer,
            disable_metrics,
            enable_metrics,
        )

        p = FunctionalProtocol(
            1,
            next_speaker=lambda board: 0,   # never halts
            message_distribution=lambda pl, x, board: (
                DiscreteDistribution.point_mass("0")
            ),
            output=lambda board: None,
        )
        tracer = RecordingTracer()
        enable_metrics(reset=True)
        try:
            with pytest.raises(
                ProtocolViolation, match="did not halt within 25 messages"
            ):
                run_protocol(p, (0,), max_messages=25, tracer=tracer)
            assert REGISTRY.counter("runner_executions").total() == 0
            assert REGISTRY.counter("bits_written").total() == 0
            assert REGISTRY.counter("runner_messages").total() == 0
        finally:
            disable_metrics()
        assert tracer.named("run_complete") == []
        assert len(tracer.named("message")) == 25

    def test_invalid_speaker_detected(self):
        p = FunctionalProtocol(
            2,
            next_speaker=lambda board: 7 if len(board) == 0 else None,
            message_distribution=lambda pl, x, board: (
                DiscreteDistribution.point_mass("0")
            ),
            output=lambda board: None,
        )
        with pytest.raises(ProtocolViolation, match="invalid player"):
            run_protocol(p, (0, 0))

    def test_empty_message_detected(self):
        p = FunctionalProtocol(
            1,
            next_speaker=lambda board: 0 if len(board) == 0 else None,
            message_distribution=lambda pl, x, board: (
                DiscreteDistribution.point_mass("")
            ),
            output=lambda board: None,
        )
        with pytest.raises(ProtocolViolation, match="empty"):
            run_protocol(p, (0,))

"""Tests for the concrete protocol runner."""

import random

import pytest

from repro.core import (
    Message,
    Protocol,
    ProtocolViolation,
    Transcript,
    run_protocol,
)
from repro.core.model import (
    BOARD_LINK,
    BroadcastMedium,
    Link,
    TopologyViolation,
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
        with pytest.raises(ProtocolViolation, match="did not halt"):
            run_protocol(_never_halts(100), (0,))

    def test_exhaustion_is_atomic(self):
        """Exceeding the declared bound leaves nothing partial behind: no
        success counters, no ``run_complete`` trace event — only the
        per-message events of the rounds that did execute.  The
        networked PartyClient's hang guard is built on this contract
        (see ``repro.net.client``), so it is pinned here."""
        from repro.obs import (
            REGISTRY,
            RecordingTracer,
            disable_metrics,
            enable_metrics,
            using_tracer,
        )

        p = _never_halts(25)
        tracer = RecordingTracer()
        enable_metrics(reset=True)
        try:
            with pytest.raises(
                ProtocolViolation, match="did not halt within 25 messages"
            ):
                with using_tracer(tracer):
                    run_protocol(p, (0,))
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


def _never_halts(bound):
    """One player writing "0" forever, declaring ``bound`` messages."""

    class NeverHalts(FunctionalProtocol):
        max_messages = bound

    return NeverHalts(
        1,
        next_speaker=lambda board: 0,
        message_distribution=lambda pl, x, board: (
            DiscreteDistribution.point_mass("0")
        ),
        output=lambda board: None,
    )


class _OneShot(Protocol):
    """Player ``speaker`` writes one bit, then the protocol halts."""

    def __init__(self, num_players, speaker):
        super().__init__(num_players)
        self._speaker = speaker

    def next_speaker(self, state, board):
        return self._speaker if len(board) == 0 else None

    def message_distribution(self, state, player, player_input, board):
        return DiscreteDistribution.point_mass("1")

    def output(self, state, board):
        return None


class _LinkOnTheBoard(_OneShot):
    """A board protocol that names a point-to-point link."""

    def next_edge(self, state, board):
        return None if len(board) else (0, Link(0, 1))


class _NoSecondPlayer(BroadcastMedium):
    """A board on which player 1 may not write."""

    def may_write(self, k, node, link):
        return node != 1 and super().may_write(k, node, link)


class TestBroadcastEdgeErrors:
    """Edge errors on the board keep their exception type and text."""

    @pytest.mark.parametrize("speaker", [2, 9, -1])
    def test_out_of_range_speaker(self, speaker):
        with pytest.raises(ProtocolViolation) as info:
            run_protocol(_OneShot(2, speaker), (0, 0))
        assert str(info.value) == f"next_edge returned invalid player {speaker}"

    def test_board_protocol_naming_a_link(self):
        with pytest.raises(TopologyViolation) as info:
            run_protocol(_LinkOnTheBoard(2, 0), (0, 0))
        assert type(info.value) is TopologyViolation
        assert str(info.value) == (
            "broadcast: Link(0,1) is not a link of this medium"
        )

    def test_board_subclass_that_forbids_a_node(self):
        medium = _NoSecondPlayer()
        run = run_protocol(_OneShot(2, 0), (0, 0), medium=medium)
        assert run.transcript.bit_string() == "1"
        with pytest.raises(TopologyViolation) as info:
            run_protocol(_OneShot(2, 1), (0, 0), medium=medium)
        assert type(info.value) is TopologyViolation
        assert str(info.value) == (
            "broadcast: node 1 may not write on BOARD_LINK (not an endpoint)"
        )

    def test_valid_board_run_is_unchanged(self):
        run = run_protocol(_OneShot(3, 2), (0, 0, 0))
        assert run.transcript.messages == (Message(2, "1"),)
        assert run.transcript[0].link is BOARD_LINK

    def test_an_instance_next_edge_is_called(self):
        protocol = _OneShot(2, 0)
        protocol.next_edge = lambda state, board: (
            None if len(board) else (1, BOARD_LINK)
        )
        run = run_protocol(protocol, (0, 0))
        assert run.transcript.messages == (Message(1, "1"),)

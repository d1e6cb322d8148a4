"""Tests for the blackboard model primitives (Section 3 semantics)."""

import pytest

from repro.core import (
    Message,
    Protocol,
    ProtocolViolation,
    Transcript,
    batched_joint_transcript_distribution,
    check_prefix_free,
)
from repro.core.model import BOARD_LINK, Link
from repro.information import DiscreteDistribution
from repro.perf import kernels


class TestMessage:
    def test_length_is_bit_count(self):
        assert len(Message(0, "10110")) == 5

    def test_invalid_speaker(self):
        with pytest.raises(ValueError):
            Message(-1, "0")

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            Message(0, "0a1")

    def test_frozen(self):
        m = Message(0, "1")
        with pytest.raises(Exception):
            m.bits = "0"

    @pytest.mark.parametrize("kernel", ["legacy", "vectorized"])
    def test_exact_walk_still_validates_messages(self, kernel):
        # The vectorized walk builds one Message per distinct
        # (speaker, bits) and shares it; a bad one must still raise.
        if kernel == "vectorized" and not kernels.numpy_available():
            pytest.skip("numpy not installed")
        scenarios = DiscreteDistribution.uniform([((1,),), ((2,),)])
        with kernels.using_kernel(kernel):
            with pytest.raises(ValueError, match="0/1 string"):
                batched_joint_transcript_distribution(
                    _EchoProtocol(), scenarios
                )


class TestTranscript:
    def test_empty(self):
        t = Transcript()
        assert len(t) == 0
        assert t.bits_written == 0
        assert t.bit_string() == ""

    def test_extend_is_persistent(self):
        t0 = Transcript()
        t1 = t0.extend(Message(0, "10"))
        t2 = t1.extend(Message(1, "0"))
        assert len(t0) == 0
        assert len(t1) == 1
        assert t2.bits_written == 3
        assert t2.bit_string() == "100"

    def test_equality_and_hash(self):
        a = Transcript([Message(0, "1"), Message(1, "0")])
        b = Transcript().extend(Message(0, "1")).extend(Message(1, "0"))
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        a = Transcript([Message(0, "1")])
        b = Transcript([Message(1, "1")])
        assert a != b

    def test_usable_as_dict_key(self):
        table = {Transcript([Message(0, "1")]): "x"}
        assert table[Transcript([Message(0, "1")])] == "x"

    def test_speakers(self):
        t = Transcript([Message(2, "1"), Message(0, "0"), Message(2, "1")])
        assert t.speakers() == [2, 0, 2]

    def test_messages_by(self):
        t = Transcript([Message(2, "1"), Message(0, "0"), Message(2, "11")])
        assert [m.bits for m in t.messages_by(2)] == ["1", "11"]

    def test_indexing_and_iteration(self):
        t = Transcript([Message(0, "1"), Message(1, "00")])
        assert t[1].bits == "00"
        assert [m.speaker for m in t] == [0, 1]

    def test_chained_extend_matches_constructor(self):
        # extend keeps a running bit count instead of re-summing the
        # board; multi-bit messages pin that the count adds lengths.
        messages = [
            Message(0, "101"), Message(2, "0"), Message(1, "1100"),
            Message(0, "01"), Message(2, ""),
        ]
        built = Transcript()
        for prefix in range(1, len(messages) + 1):
            built = built.extend(messages[prefix - 1])
            direct = Transcript(messages[:prefix])
            assert built == direct
            assert hash(built) == hash(direct)
            assert built.bits_written == direct.bits_written
            assert built.bits_written == sum(
                len(m.bits) for m in messages[:prefix]
            )
        assert built.bits_written == 10
        assert {direct: "x"}[built] == "x"

    def test_chained_link_extend_matches_constructor(self):
        messages = [
            Message(0, "110", Link(0, 3)),
            Message(3, "0", Link(0, 3)),
            Message(1, "1011", BOARD_LINK),
            Message(3, "01", Link(1, 3)),
        ]
        built = Transcript()
        for prefix in range(1, len(messages) + 1):
            built = built.extend(messages[prefix - 1])
            direct = Transcript(messages[:prefix])
            assert built == direct
            assert hash(built) == hash(direct)
            assert built.bits_written == direct.bits_written
        assert built.bits_written == 10
        assert built.bits_by_link() == direct.bits_by_link()


class TestPointMass:
    @pytest.mark.parametrize(
        "outcome", [0, "x", (1, 0, 1), Transcript([Message(0, "10")])]
    )
    def test_matches_validating_constructor(self, outcome):
        fast = DiscreteDistribution.point_mass(outcome)
        slow = DiscreteDistribution({outcome: 1.0})
        assert list(fast.items()) == list(slow.items())
        assert fast.entropy() == slow.entropy() == 0.0
        assert fast.support() == slow.support()
        assert fast[outcome] == 1.0


class TestPrefixFree:
    def test_valid_sets(self):
        check_prefix_free(["0", "10", "11"])
        check_prefix_free(["0", "0"])  # duplicates collapse

    def test_prefix_violation(self):
        with pytest.raises(ProtocolViolation, match="prefix"):
            check_prefix_free(["0", "01"])

    def test_non_adjacent_prefix_violation(self):
        with pytest.raises(ProtocolViolation, match="prefix"):
            check_prefix_free(["1", "10111", "101"])

    def test_empty_message_rejected(self):
        with pytest.raises(ProtocolViolation, match="empty"):
            check_prefix_free(["", "1"])


class _EchoProtocol(Protocol):
    """One player writes its one-bit input; used for the base-class tests."""

    def __init__(self):
        super().__init__(1)

    def next_speaker(self, state, board):
        return None if len(board) else 0

    def message_distribution(self, state, player, player_input, board):
        return DiscreteDistribution.point_mass(str(player_input))

    def output(self, state, board):
        return int(board[0].bits)


class TestProtocolBase:
    def test_num_players_validated(self):
        class ZeroPlayers(_EchoProtocol):
            def __init__(self):
                Protocol.__init__(self, 0)

        with pytest.raises(ValueError):
            ZeroPlayers()

    def test_validate_inputs(self):
        p = _EchoProtocol()
        p.validate_inputs([1])
        with pytest.raises(ProtocolViolation):
            p.validate_inputs([1, 0])

    def test_replay_state_default(self):
        p = _EchoProtocol()
        board = Transcript([Message(0, "1")])
        assert p.replay_state(board) is None

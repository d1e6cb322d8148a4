"""Adversarial-input tests: protocols must reject malformed board
contents instead of silently mis-decoding them.

In the blackboard model every player decodes everyone else's messages;
the decoders in the shipped protocols are therefore exposed to whatever
bit strings appear on the board.  These tests feed corrupted messages
through ``advance_state`` and assert a clean ``ProtocolViolation`` (or
bit-reader error), never a wrong silent parse.

Two layers of coverage:

* hand-built corruptions targeting the specific decoders of the
  disjointness/union protocols (the classes below), and
* a generator-produced sweep (``TestAdversarialBoards``) over *every*
  registry protocol: at each explored board the legitimate next
  messages are truncated, extended, bit-flipped, and swapped with
  prefixes of sibling messages, and each corruption must either raise a
  clean decoder error or be provably unsendable (zero probability under
  every input, so it can never reach a real board).
"""

import pytest

from repro.check.generator import derive_rng
from repro.core import Message, ProtocolViolation, Transcript
from repro.core.validate import reachable_boards
from repro.protocols import (
    ALL_PROTOCOLS,
    NaiveDisjointnessProtocol,
    OptimalDisjointnessProtocol,
    UnionProtocol,
)


class TestNaiveProtocolDecoder:
    def test_unsorted_coordinates_rejected(self):
        p = NaiveDisjointnessProtocol(8, 2)
        # flag=1, count=2 (elias gamma "010"), coordinates 5 then 3.
        bits = "1" + "010" + format(5, "03b") + format(3, "03b")
        with pytest.raises(ProtocolViolation, match="malformed"):
            p.advance_state(p.initial_state(), Message(0, bits))

    def test_truncated_message_rejected(self):
        p = NaiveDisjointnessProtocol(8, 2)
        bits = "1" + "010" + format(5, "03b")  # second coordinate missing
        with pytest.raises((ProtocolViolation, EOFError)):
            p.advance_state(p.initial_state(), Message(0, bits))

    def test_trailing_garbage_rejected(self):
        p = NaiveDisjointnessProtocol(8, 2)
        bits = "0" + "1"  # pass flag followed by junk
        with pytest.raises((ProtocolViolation, ValueError)):
            p.advance_state(p.initial_state(), Message(0, bits))


    @pytest.mark.parametrize(
        "bits,error,text",
        [
            # Out of order (5 then 3) *and* truncated (third coordinate
            # missing): the bad coordinate comes first on the board.
            ("1" + "011" + "101" + "011", ProtocolViolation,
             "malformed coordinate list in message '1011101011'"),
            ("1" + "011" + "010" + "101" + "1", EOFError,
             "requested 3 bits but only 1 remain"),
            ("1" + "010", EOFError, "requested 3 bits but only 0 remain"),
            ("1" + "00", EOFError,
             "attempted to read past the end of the bit string"),
            ("1" + "1" + "100" + "0", ValueError,
             "1 unread bits remain: '0'"),
        ],
        ids=["unsorted-and-truncated", "cut-mid-coordinate", "no-body",
             "cut-gamma", "trailing"],
    )
    def test_error_precedence_and_text(self, bits, error, text):
        p = NaiveDisjointnessProtocol(8, 2)
        with pytest.raises(error) as info:
            p.advance_state(p.initial_state(), Message(0, bits))
        assert type(info.value) is error
        assert str(info.value) == text

    def test_coordinate_outside_universe_rejected(self):
        p = NaiveDisjointnessProtocol(5, 2)  # 3-bit indices, n = 5
        bits = "1" + "010" + "001" + "110"  # coordinates 1, 6
        with pytest.raises(ProtocolViolation, match="malformed"):
            p.advance_state(p.initial_state(), Message(0, bits))


class TestOptimalProtocolDecoder:
    def test_endgame_out_of_range_index(self):
        p = OptimalDisjointnessProtocol(8, 3)  # endgame from the start
        # flag=1, count=1, index 7 is fine; index >= z must fail.  Use a
        # two-element message with a repeated index (non-increasing).
        width = 3  # z = 8 -> 3-bit indices
        bits = "1" + "010" + format(4, f"0{width}b") + format(4, f"0{width}b")
        with pytest.raises(ProtocolViolation, match="malformed"):
            p.advance_state(p.initial_state(), Message(0, bits))

    def test_truncated_batch_rejected(self):
        p = OptimalDisjointnessProtocol(100, 4)  # batch phase
        bits = "1" + "0101"  # far fewer bits than the subset rank width
        with pytest.raises((ProtocolViolation, EOFError, ValueError)):
            p.advance_state(p.initial_state(), Message(0, bits))

    def test_rank_out_of_range_rejected(self):
        p = OptimalDisjointnessProtocol(100, 4)
        from repro.coding import subset_code_width

        z, m = 100, 25
        width = subset_code_width(z, m)
        # The largest width-bit value generally exceeds C(z, m) - 1.
        bits = "1" + "1" * width
        with pytest.raises((ProtocolViolation, ValueError)):
            p.advance_state(p.initial_state(), Message(0, bits))


class TestUnionProtocolDecoder:
    def test_count_exceeding_zone_rejected(self):
        p = UnionProtocol(8, 3)  # endgame from the start (8 < 9)
        # flag=1, elias-gamma count = 9 > z = 8.
        from repro.coding import encode_elias_gamma

        bits = "1" + encode_elias_gamma(9)
        with pytest.raises((ProtocolViolation, EOFError, ValueError)):
            p.advance_state(p.initial_state(), Message(0, bits))

    def test_trailing_garbage_rejected(self):
        p = UnionProtocol(8, 3)
        bits = "0" + "00"
        with pytest.raises((ProtocolViolation, ValueError)):
            p.advance_state(p.initial_state(), Message(0, bits))


# Exception types a decoder may raise on malformed input.  Anything else
# (AttributeError, TypeError, ...) indicates the decoder fell over
# instead of rejecting, and fails the sweep.
CLEAN_DECODER_ERRORS = (ProtocolViolation, EOFError, ValueError, KeyError, IndexError)

MAX_BOARDS_PER_CASE = 40
MAX_INPUTS_PER_CASE = 8
MAX_CORRUPTIONS_PER_BOARD = 24


def _corruptions(rng, messages):
    """Adversarial variants of a board's legitimate next messages:
    truncations, extensions, single-bit flips, and prefix swaps between
    sibling messages."""
    ordered = sorted(messages)
    variants = []
    for bits in ordered:
        if len(bits) > 1:
            variants.append(bits[:-1])  # truncated
            variants.append(bits[: rng.randrange(1, len(bits))])
        variants.append(bits + str(rng.randrange(2)))  # extended
        flip = rng.randrange(len(bits))  # bit flip
        variants.append(
            bits[:flip] + ("1" if bits[flip] == "0" else "0") + bits[flip + 1 :]
        )
    for bits in ordered:  # swapped prefixes between siblings
        other = ordered[rng.randrange(len(ordered))]
        if other != bits:
            cut = rng.randrange(1, max(2, min(len(bits), len(other))))
            variants.append(other[:cut] + bits[cut:])
    rng.shuffle(variants)
    return variants[:MAX_CORRUPTIONS_PER_BOARD]


@pytest.mark.parametrize(
    "case", ALL_PROTOCOLS, ids=[case.name for case in ALL_PROTOCOLS]
)
def test_adversarial_boards(case):
    """Sweep every registry protocol with generator-produced corrupted
    messages at each explored board.

    A corruption that coincides with another legitimate message must be
    accepted.  Any other corruption must either (a) raise one of the
    clean decoder errors, or (b) be unsendable: zero probability under
    *every* input at that board, so no execution can ever place it on a
    real board and a lenient parse is unobservable.
    """
    protocol = case.build()
    inputs = case.input_tuples()[:MAX_INPUTS_PER_CASE]
    rng = derive_rng("adversarial-boards", case.name)
    boards_seen = 0
    for state, board, speaker, messages in reachable_boards(protocol, inputs):
        if boards_seen >= MAX_BOARDS_PER_CASE:
            break
        boards_seen += 1
        if not messages:
            continue
        for bits in _corruptions(rng, messages):
            if bits in messages:
                # Collides with a legitimate sibling message: the
                # decoder must accept it without raising.
                protocol.advance_state(state, Message(speaker, bits))
                continue
            try:
                protocol.advance_state(state, Message(speaker, bits))
            except CLEAN_DECODER_ERRORS:
                continue  # rejected cleanly
            # Parsed without error: tolerable only if unsendable.
            for raw in inputs:
                dist = protocol.message_distribution(
                    state, speaker, raw[speaker], board
                )
                assert dist[bits] == 0.0, (
                    f"{case.name}: corrupted message {bits!r} at board "
                    f"{board.bit_string()!r} parsed silently yet is "
                    f"sendable under input {raw!r}"
                )
    assert boards_seen > 0

"""Each protocol's declared message bound (``Protocol.max_messages``).

Every registry case stays within its bound on its whole input family,
in the runner and in the walk; a planted hang stops at the bound on
every engine at once, instead of running to the undeclared ceiling;
and a protocol that declares nothing stops at that ceiling with one
error in memory and over the wire.
"""

import random
import time

import pytest

from repro.coding.bitops import popcount
from repro.core import run_protocol, transcript_distribution
from repro.core.model import DEFAULT_MAX_MESSAGES, ProtocolViolation
from repro.core.tree import transcript_distributions
from repro.net import run_networked
from repro.information import DiscreteDistribution
from repro.protocols import (
    ALL_PROTOCOLS,
    FunctionalProtocol,
    OptimalDisjointnessProtocol,
    UnionProtocol,
)
from repro.protocols.batch import decode_batch_turn
from repro.protocols.optimal_disjointness import _BoardState

#: Registry cases whose protocol declares no proven bound.
UNDECLARED = {"functional-random"}


@pytest.mark.parametrize(
    "case", ALL_PROTOCOLS, ids=[case.name for case in ALL_PROTOCOLS]
)
def test_registry_cases_stay_within_their_declared_bound(case):
    protocol = case.build()
    bound = protocol.max_messages
    assert (bound == DEFAULT_MAX_MESSAGES) == (case.name in UNDECLARED)
    inputs = case.input_tuples()
    for index, x in enumerate(inputs):
        run = run_protocol(protocol, x, rng=random.Random(index))
        assert run.rounds <= bound
    laws = transcript_distributions(protocol, inputs)
    assert max(len(t) for law in laws.values() for t in law.support()) <= bound


class PassCountsAsProgress(OptimalDisjointnessProtocol):
    """The Section 5 protocol with a planted hang: a turn that writes
    nothing counts as progress (``wrote or written == 0`` where the
    protocol has ``!= 0``), so an all-pass cycle starts another cycle
    instead of ending the run with verdict 0."""

    def advance_state(self, state, message):
        k = self.num_players
        covered, zone, turn, wrote, endgame, verdict = state
        if endgame:
            written = self._decode_endgame_turn(message.bits, zone)
        else:
            written = decode_batch_turn(message.bits, zone, k)
        covered |= written
        turn += 1
        wrote = wrote or written == 0
        if covered == self._full or turn < k:
            return _BoardState(covered, zone, turn, wrote, endgame, verdict)
        if endgame or not wrote:
            return _BoardState(covered, zone, turn, wrote, endgame, 0)
        zone = self._full & ~covered
        return _BoardState(
            covered, zone, 0, False, popcount(zone) < k * k, None
        )


HANG = PassCountsAsProgress(5, 2)
HANG_INPUTS = (29, 19)  # both hold coordinates 0 and 4: an all-pass cycle


@pytest.mark.parametrize(
    "engine",
    [
        lambda: run_protocol(HANG, HANG_INPUTS),
        lambda: run_networked(HANG, HANG_INPUTS, transport="loopback"),
        lambda: run_networked(HANG, HANG_INPUTS, transport="tcp"),
        lambda: transcript_distribution(HANG, HANG_INPUTS),
    ],
    ids=["run_protocol", "loopback", "tcp", "walk"],
)
def test_planted_hang_stops_at_the_declared_bound(engine):
    started = time.monotonic()
    with pytest.raises(ProtocolViolation, match=r"\b12 messages"):
        engine()
    assert time.monotonic() - started < 5.0
    assert HANG.max_messages == 12  # k (n + 1)


class EndgameNeverEnds(UnionProtocol):
    """The union protocol with a planted hang: a finished endgame cycle
    that left the universe uncovered starts another endgame cycle."""

    def advance_state(self, state, message):
        state = super().advance_state(state, message)
        if state.finished and state.covered != (1 << self.universe_size) - 1:
            return state._replace(turn=0, finished=False)
        return state


def test_planted_union_hang_stops_at_the_declared_bound():
    hang = EndgameNeverEnds(3, 2)  # n < k^2: the endgame from the start
    with pytest.raises(ProtocolViolation, match=r"\b10 messages"):
        run_protocol(hang, (1, 2))
    assert hang.max_messages == 10  # k (n + 2)


def test_undeclared_hang_fails_identically_at_the_ceiling():
    protocol = FunctionalProtocol(
        2,
        next_speaker=lambda board: len(board) % 2,
        message_distribution=lambda player, x, board: (
            DiscreteDistribution.point_mass("0")
        ),
        output=lambda board: None,
    )
    assert protocol.max_messages == DEFAULT_MAX_MESSAGES
    errors = []
    for engine in (run_protocol, run_networked):
        with pytest.raises(ProtocolViolation) as info:
            engine(protocol, (0, 0))
        errors.append(str(info.value))
    assert errors == [
        f"protocol did not halt within {DEFAULT_MAX_MESSAGES} messages"
    ] * 2

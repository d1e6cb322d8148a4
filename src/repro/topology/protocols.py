"""Protocols ported to the coordinator and graph media.

The cross-model content of experiment E16: the same tasks the broadcast
experiments measure, restated over point-to-point links.

* :class:`CoordinatorTrivialDisjointness` — every player ships its full
  ``n``-bit characteristic vector to the coordinator: exactly
  :math:`nk` bits, the naive upper bound of the message-passing model.
* :class:`CoordinatorDisjointnessProtocol` — the relay protocol with
  the :math:`O(nk)` shape of arXiv:1305.4696: player 0 sends its set,
  then for each further player the coordinator forwards the running
  intersection down that player's private link and the player returns
  the refined intersection — :math:`n(2k-1)` bits, every bit paid
  per link because no blackboard lets one write serve ``k`` readers.
  Contrast with the blackboard's :math:`\\Theta(n \\log k + k)`
  optimal protocol (E1): the gap between the two *is* the value of the
  broadcast medium, and E16 tabulates it.
* :class:`CoordinatorAndProtocol` — :math:`AND_k` with coordinator-side
  early halting: player ``i`` is polled only while all previous bits
  were 1, so at most ``k`` bits flow.  Its schedule reads message
  *contents*, which the coordinator (who sees every link) may do — but
  a general graph's schedule must be determined by public metadata
  alone, so this same protocol validates under
  :data:`~repro.topology.medium.COORDINATOR` and is *rejected* by the
  scheduler-locality audit on :func:`~repro.topology.medium.
  star_medium`'s graph, despite identical links.  The pair of tests
  over this protocol documents exactly that semantic gap.
* :class:`RingTokenAndProtocol` — :math:`AND_k` on
  :func:`~repro.topology.medium.ring_medium`: a 1-bit token circles
  the ring once, each player ANDing in its own bit; ``k`` bits,
  round-count schedule, fully view-local.

All hooks are pure and fold state incrementally, like every protocol in
:mod:`repro.protocols`.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..information.distribution import DiscreteDistribution
from ..core.model import Link, Message, Transcript
from ..protocols.and_protocols import BIT_LAWS
from .protocol import MediumProtocol

__all__ = [
    "CoordinatorTrivialDisjointness",
    "CoordinatorDisjointnessProtocol",
    "CoordinatorAndProtocol",
    "RingTokenAndProtocol",
]


def _mask_bits(mask: int, n: int) -> str:
    return format(mask, f"0{n}b")


class CoordinatorTrivialDisjointness(MediumProtocol):
    """Naive disjointness in the coordinator model: player ``i`` sends
    its ``n``-bit set on its private link, in index order; the
    coordinator intersects.  Inputs are subset bitmasks of
    ``{0..n-1}``; output 1 iff the intersection is empty.

    Communication: exactly ``n * k`` bits, on every input.
    """

    def __init__(self, n: int, k: int) -> None:
        if n < 1:
            raise ValueError(f"universe size must be >= 1, got {n}")
        super().__init__(k)
        self._n = n

    @property
    def universe_size(self) -> int:
        return self._n

    # state: (messages sent, running intersection mask)
    def initial_state(self) -> Any:
        return (0, (1 << self._n) - 1)

    def advance_state(self, state: Any, message: Message) -> Any:
        count, intersection = state
        return (count + 1, intersection & int(message.bits, 2))

    def next_edge(
        self, state: Any, transcript: Transcript
    ) -> Optional[Tuple[int, Any]]:
        count, _ = state
        if count >= self.num_players:
            return None
        return (count, Link(count, self.num_players))

    def message_distribution(
        self,
        state: Any,
        speaker: int,
        speaker_input: Any,
        transcript: Transcript,
    ) -> DiscreteDistribution:
        return DiscreteDistribution.point_mass(
            _mask_bits(speaker_input, self._n)
        )

    def output(self, state: Any, transcript: Transcript) -> Any:
        _, intersection = state
        return int(intersection == 0)


class CoordinatorDisjointnessProtocol(MediumProtocol):
    """Relay disjointness in the coordinator model, the ``O(nk)`` shape
    of arXiv:1305.4696.

    Player 0 sends its ``n``-bit set; then for each player
    ``i = 1..k-1`` the coordinator forwards the running intersection on
    player ``i``'s private link and player ``i`` replies with the
    intersection refined by its own set.  The final reply is the global
    intersection; output 1 iff it is empty.

    Communication: exactly ``n * (2k - 1)`` bits on every input — no
    early halting, so the measured cost is the model's per-link price
    undiluted (an early-exit variant would collapse to ``~3n`` bits on
    already-empty intersections and hide the :math:`nk` growth E16 is
    after).  The schedule is the message *count* — public metadata — so
    this protocol is valid on the star graph medium too.
    """

    def __init__(self, n: int, k: int) -> None:
        if n < 1:
            raise ValueError(f"universe size must be >= 1, got {n}")
        if k < 2:
            raise ValueError(f"the relay needs at least 2 players, got {k}")
        super().__init__(k)
        self._n = n

    @property
    def universe_size(self) -> int:
        return self._n

    # state: (messages sent, running intersection known to the hub).
    # Player replies carry the refined intersection, so folding them is
    # enough; hub forwards do not change it.
    def initial_state(self) -> Any:
        return (0, None)

    def advance_state(self, state: Any, message: Message) -> Any:
        count, running = state
        if message.speaker < self.num_players:
            running = int(message.bits, 2)
        return (count + 1, running)

    def next_edge(
        self, state: Any, transcript: Transcript
    ) -> Optional[Tuple[int, Any]]:
        count, _ = state
        k = self.num_players
        if count == 0:
            return (0, Link(0, k))
        if count >= 2 * k - 1:
            return None
        target = (count - 1) // 2 + 1
        if (count - 1) % 2 == 0:
            return (k, Link(target, k))  # hub forwards the intersection
        return (target, Link(target, k))  # player refines it

    def message_distribution(
        self,
        state: Any,
        speaker: int,
        speaker_input: Any,
        transcript: Transcript,
    ) -> DiscreteDistribution:
        count, running = state
        k = self.num_players
        if speaker == k:
            # The hub forwards the running intersection it holds.
            return DiscreteDistribution.point_mass(_mask_bits(running, self._n))
        if count == 0:
            return DiscreteDistribution.point_mass(
                _mask_bits(speaker_input, self._n)
            )
        # A replying player intersects the hub's forward — the last
        # message on its own link — with its own set.  ``running`` equals
        # that forward's payload, so the law stays view-local.
        return DiscreteDistribution.point_mass(
            _mask_bits(running & speaker_input, self._n)
        )

    def output(self, state: Any, transcript: Transcript) -> Any:
        _, running = state
        return int(running == 0)


class CoordinatorAndProtocol(MediumProtocol):
    """``AND_k`` in the coordinator model with early halting.

    Players hold bits; player ``i`` is polled (sends its bit on its
    private link) only while every earlier bit was 1 — the coordinator,
    seeing all links, stops polling at the first 0.  At most ``k`` bits
    flow; output 1 iff all polled bits were 1 and everyone was polled.

    The schedule depends on message *contents* (was the last bit a 1?),
    which is legal exactly when the scheduler sees contents — the
    coordinator medium.  On the star *graph* medium, whose schedule may
    read only public metadata, the same protocol fails the
    scheduler-locality audit; the topology tests pin both facts.
    """

    def __init__(self, k: int) -> None:
        super().__init__(k)

    # state: (bits gathered, saw a zero)
    def initial_state(self) -> Any:
        return (0, False)

    def advance_state(self, state: Any, message: Message) -> Any:
        count, saw_zero = state
        return (count + 1, saw_zero or message.bits == "0")

    def next_edge(
        self, state: Any, transcript: Transcript
    ) -> Optional[Tuple[int, Any]]:
        count, saw_zero = state
        if saw_zero or count >= self.num_players:
            return None
        return (count, Link(count, self.num_players))

    def message_distribution(
        self,
        state: Any,
        speaker: int,
        speaker_input: Any,
        transcript: Transcript,
    ) -> DiscreteDistribution:
        return BIT_LAWS[1 if speaker_input else 0]

    def output(self, state: Any, transcript: Transcript) -> Any:
        count, saw_zero = state
        return int(not saw_zero and count == self.num_players)


class RingTokenAndProtocol(MediumProtocol):
    """``AND_k`` on the ring: a 1-bit token makes one pass.

    Player ``t`` speaks at round ``t`` on ``Link(t, (t+1) mod k)``,
    sending the AND of its own bit with the token it received from
    player ``t - 1`` (player 0 sends its own bit).  After ``k`` bits
    the token, now the AND of everything, has returned to player 0 —
    the output.  The schedule is the round count (public metadata) and
    each message reads only the incoming visible link, so the protocol
    passes the full graph-medium audit; it is the ring smoke protocol
    of the topology tests.
    """

    def __init__(self, k: int) -> None:
        if k < 3:
            raise ValueError(f"a ring needs at least 3 players, got {k}")
        super().__init__(k)

    # state: (round, token)
    def initial_state(self) -> Any:
        return (0, 1)

    def advance_state(self, state: Any, message: Message) -> Any:
        count, _ = state
        return (count + 1, int(message.bits))

    def next_edge(
        self, state: Any, transcript: Transcript
    ) -> Optional[Tuple[int, Any]]:
        count, _ = state
        k = self.num_players
        if count >= k:
            return None
        return (count, Link(count, (count + 1) % k))

    def message_distribution(
        self,
        state: Any,
        speaker: int,
        speaker_input: Any,
        transcript: Transcript,
    ) -> DiscreteDistribution:
        _, token = state
        # The token equals the last message's payload — carried on the
        # speaker's incoming link, hence within its view.
        return DiscreteDistribution.point_mass(
            "1" if (token and speaker_input) else "0"
        )

    def output(self, state: Any, transcript: Transcript) -> Any:
        _, token = state
        return int(token)

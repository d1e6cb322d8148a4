"""Protocols for one-bit :math:`\\mathrm{AND}_k`.

Three protocols, each playing a distinct role in the reproduction:

* :class:`SequentialAndProtocol` — the Section 6 protocol: players go in
  order and write their input bit until someone writes 0 (then all halt)
  or everyone has written 1.  The transcript is determined by the index of
  the first zero, so :math:`H(\\Pi) = O(\\log k)` under *any* input
  distribution — this is the protocol that witnesses
  :math:`IC_\\mu(\\mathrm{AND}_k) \\le O(\\log k)` and hence the
  :math:`\\Omega(k / \\log k)` information/communication gap (experiment
  E5).  Its worst-case communication is exactly :math:`k`.

* :class:`FullBroadcastAndProtocol` — every player writes its bit
  unconditionally.  A deliberately information-wasteful baseline: its
  information cost is :math:`H(X)`, which can be :math:`\\Theta(k)`.

* :class:`NoisySequentialAndProtocol` — a *randomized* variant in which
  each written bit is flipped with probability ``flip_prob``; players
  always speak (no early halt) and the output is the AND of the written
  bits.  It errs, and its message distributions genuinely depend on both
  input and private coins, which makes it the workhorse for exercising
  the randomized machinery: Lemma 3 decompositions, Lemma 4 posteriors,
  and one-shot compression of a lossy protocol.
"""

from __future__ import annotations

from typing import Any, Optional

from ..information.distribution import DiscreteDistribution
from ..core.model import Message, Protocol, Transcript

__all__ = [
    "BIT_LAWS",
    "SequentialAndProtocol",
    "FullBroadcastAndProtocol",
    "NoisySequentialAndProtocol",
]

#: The point masses on the words "0" and "1", indexed by the bit: the
#: message law of a player who writes its input bit.  Shared by every
#: call (nothing mutates a distribution once built).
BIT_LAWS = (
    DiscreteDistribution.point_mass("0"),
    DiscreteDistribution.point_mass("1"),
)


class SequentialAndProtocol(Protocol):
    """Players 0, 1, ... write their bit in order; halt at the first 0.

    Deterministic and always correct for :math:`\\mathrm{AND}_k`.  The
    reachable transcripts are ``1^j 0`` for :math:`j < k` and ``1^k`` —
    at most :math:`k + 1` of them, so the transcript entropy (and with it
    the external information cost) is at most :math:`\\log_2(k + 1)`
    under every input distribution, exactly as argued in Section 6.
    """

    def __init__(self, k: int) -> None:
        super().__init__(k)

    # State: (number of messages, saw_zero flag).
    def initial_state(self) -> Any:
        return (0, False)

    def advance_state(self, state: Any, message: Message) -> Any:
        count, saw_zero = state
        return (count + 1, saw_zero or message.bits == "0")

    def next_speaker(self, state: Any, board: Transcript) -> Optional[int]:
        count, saw_zero = state
        if saw_zero or count >= self.num_players:
            return None
        return count

    def message_distribution(
        self, state: Any, player: int, player_input: Any, board: Transcript
    ) -> DiscreteDistribution:
        bit = int(player_input)
        if bit not in (0, 1):
            raise ValueError(f"AND inputs must be bits, got {player_input!r}")
        return BIT_LAWS[bit]

    def output(self, state: Any, board: Transcript) -> int:
        _count, saw_zero = state
        return 0 if saw_zero else 1


class FullBroadcastAndProtocol(Protocol):
    """Every player writes its bit; output is the AND of the board.

    Communication is always exactly :math:`k` and the transcript equals
    the input, so :math:`IC_\\mu = H_\\mu(X)` — the maximally revealing
    protocol, used as the upper anchor in the information-cost
    experiments.
    """

    def __init__(self, k: int) -> None:
        super().__init__(k)

    def initial_state(self) -> Any:
        return (0, True)

    def advance_state(self, state: Any, message: Message) -> Any:
        count, all_ones = state
        return (count + 1, all_ones and message.bits == "1")

    def next_speaker(self, state: Any, board: Transcript) -> Optional[int]:
        count, _all_ones = state
        return count if count < self.num_players else None

    def message_distribution(
        self, state: Any, player: int, player_input: Any, board: Transcript
    ) -> DiscreteDistribution:
        bit = int(player_input)
        if bit not in (0, 1):
            raise ValueError(f"AND inputs must be bits, got {player_input!r}")
        return BIT_LAWS[bit]

    def output(self, state: Any, board: Transcript) -> int:
        _count, all_ones = state
        return 1 if all_ones else 0


class NoisySequentialAndProtocol(Protocol):
    """Every player writes its bit flipped with probability ``flip_prob``.

    The output is the AND of the *written* bits, so the protocol errs
    (with probability that grows with ``k`` and ``flip_prob``); it is not
    meant as a good AND protocol but as a canonical *randomized* protocol
    whose message distributions depend non-trivially on the inputs.
    """

    def __init__(self, k: int, flip_prob: float) -> None:
        super().__init__(k)
        if not 0.0 <= flip_prob < 0.5:
            raise ValueError(
                f"flip_prob must lie in [0, 0.5), got {flip_prob!r}"
            )
        self._flip_prob = flip_prob

    @property
    def flip_prob(self) -> float:
        return self._flip_prob

    def initial_state(self) -> Any:
        return (0, True)

    def advance_state(self, state: Any, message: Message) -> Any:
        count, all_ones = state
        return (count + 1, all_ones and message.bits == "1")

    def next_speaker(self, state: Any, board: Transcript) -> Optional[int]:
        count, _all_ones = state
        return count if count < self.num_players else None

    def message_distribution(
        self, state: Any, player: int, player_input: Any, board: Transcript
    ) -> DiscreteDistribution:
        bit = int(player_input)
        if bit not in (0, 1):
            raise ValueError(f"AND inputs must be bits, got {player_input!r}")
        p_one = (1.0 - self._flip_prob) if bit else self._flip_prob
        return DiscreteDistribution(
            {"1": p_one, "0": 1.0 - p_one}, normalize=True
        )

    def output(self, state: Any, board: Transcript) -> int:
        _count, all_ones = state
        return 1 if all_ones else 0

"""The trivial disjointness protocol: everyone broadcasts their input.

Each player in turn writes its entire characteristic vector (``n`` bits);
the output is computed from the board for free.  Communication is exactly
:math:`n \\cdot k` on every input.  This is the upper anchor for the E1
scaling experiment — both the naive and the optimal protocols must beat
it, by factors that the benchmark reports.
"""

from __future__ import annotations

from typing import Any, Optional

from ..information.distribution import DiscreteDistribution
from ..core.model import Message, Protocol, Transcript

__all__ = ["TrivialDisjointnessProtocol"]


class TrivialDisjointnessProtocol(Protocol):
    """Every player writes its full ``n``-bit input; output is DISJ."""

    def __init__(self, n: int, k: int) -> None:
        super().__init__(k)
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self._n = n

    @property
    def universe_size(self) -> int:
        return self._n

    @property
    def max_messages(self) -> int:
        """``k``: each player speaks once."""
        return self._num_players

    # State: (players spoken, running AND of the masks written so far).
    def initial_state(self) -> Any:
        return (0, (1 << self._n) - 1)

    def advance_state(self, state: Any, message: Message) -> Any:
        count, intersection = state
        mask = int(message.bits, 2)
        return (count + 1, intersection & mask)

    def next_speaker(self, state: Any, board: Transcript) -> Optional[int]:
        count, _ = state
        return count if count < self.num_players else None

    def message_distribution(
        self, state: Any, player: int, player_input: Any, board: Transcript
    ) -> DiscreteDistribution:
        mask = int(player_input)
        if not 0 <= mask < (1 << self._n):
            raise ValueError(
                f"input {player_input!r} is not an {self._n}-bit mask"
            )
        return DiscreteDistribution.point_mass(format(mask, f"0{self._n}b"))

    def output(self, state: Any, board: Transcript) -> int:
        _count, intersection = state
        return int(intersection == 0)

"""Protocols built from plain functions, and random protocol generation.

:class:`FunctionalProtocol` adapts a triple of closures into the
:class:`~repro.core.model.Protocol` interface — convenient for tests and
for one-off protocols in examples.

:func:`random_boolean_protocol` draws a random private-coin protocol over
one-bit inputs.  The Section 4 lower-bound machinery (Lemma 3's product
decomposition, Lemma 4's posterior formula) is supposed to hold for *any*
protocol; the property-based tests exercise it against protocols sampled
here, which is far stronger evidence than checking a couple of
hand-written ones.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from ..information.distribution import DiscreteDistribution
from ..core.model import Protocol, Transcript

__all__ = ["FunctionalProtocol", "random_boolean_protocol"]


class FunctionalProtocol(Protocol):
    """A protocol assembled from closures.

    Parameters
    ----------
    num_players:
        ``k``.
    next_speaker:
        ``(board) -> Optional[int]``.
    message_distribution:
        ``(player, player_input, board) -> DiscreteDistribution`` over bit
        strings.
    output:
        ``(board) -> Any``.

    The closures receive the full :class:`Transcript`; no incremental
    state is kept (fine for the small protocols this class is for).
    """

    def __init__(
        self,
        num_players: int,
        next_speaker: Callable[[Transcript], Optional[int]],
        message_distribution: Callable[[int, Any, Transcript], DiscreteDistribution],
        output: Callable[[Transcript], Any],
    ) -> None:
        super().__init__(num_players)
        self._next_speaker = next_speaker
        self._message_distribution = message_distribution
        self._output = output

    def next_speaker(self, state: Any, board: Transcript) -> Optional[int]:
        return self._next_speaker(board)

    def message_distribution(
        self, state: Any, player: int, player_input: Any, board: Transcript
    ) -> DiscreteDistribution:
        return self._message_distribution(player, player_input, board)

    def output(self, state: Any, board: Transcript) -> Any:
        return self._output(board)


def random_boolean_protocol(
    k: int,
    rng: random.Random,
    *,
    rounds: int = 3,
) -> FunctionalProtocol:
    """A random private-coin protocol over one-bit inputs.

    Structure: for ``rounds`` full round-robin cycles, each player in turn
    writes one bit.  The bit's bias is drawn (once, per ``(round, player,
    input bit, board bits so far)``) uniformly from ``[0, 1]``, so message
    distributions genuinely depend on inputs, history, and private coins.
    The output is a random bit-valued function of the final board.

    Used by property tests: Lemma 3 and Lemma 4 must hold for every such
    protocol exactly.
    """
    if k < 1:
        raise ValueError(f"need at least one player, got {k}")
    if rounds < 1:
        raise ValueError(f"need at least one round, got {rounds}")

    bias_cache: dict = {}
    output_cache: dict = {}
    # Freeze the generator's stream for this protocol: all randomness is
    # drawn through ``rng`` at construction/lookup time and memoized, so
    # the protocol itself is a fixed (random) protocol, not a fresh one
    # per call.

    def bias_for(player: int, bit: int, history: str) -> float:
        key = (player, bit, history)
        if key not in bias_cache:
            bias_cache[key] = rng.random()
        return bias_cache[key]

    def next_speaker(board: Transcript) -> Optional[int]:
        if len(board) >= rounds * k:
            return None
        return len(board) % k

    def message_distribution(
        player: int, player_input: Any, board: Transcript
    ) -> DiscreteDistribution:
        bias = bias_for(player, int(player_input), board.bit_string())
        return DiscreteDistribution({"1": bias, "0": 1.0 - bias}, normalize=True)

    def output(board: Transcript) -> Any:
        history = board.bit_string()
        if history not in output_cache:
            output_cache[history] = rng.choice((0, 1))
        return output_cache[history]

    return FunctionalProtocol(k, next_speaker, message_distribution, output)

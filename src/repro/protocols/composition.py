"""Composing a base protocol over many independent instances.

:class:`SequentialCompositionProtocol` runs ``copies`` independent
instances of a base protocol one after another; player ``i``'s input is a
tuple of per-copy inputs.  Communication and (for independent per-copy
inputs) information both add up exactly across copies — the additivity
that underlies the direct-sum Lemma 1, Theorem 4's tightness for product
distributions (experiment E9), and the "n independent instances" setting
of Theorem 3.

Note on rounds: sequential composition multiplies the *round* count by
``copies``.  The paper's amortized compression (Theorem 3) instead runs
the copies round-synchronously so the round count stays fixed; that
parallel execution lives in :mod:`repro.compression.amortized`, which
needs finer control than the :class:`~repro.core.model.Protocol`
interface exposes.  For information accounting the interleaving is
irrelevant (the chain rule does not care about order), which the test
suite checks.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from ..information.distribution import DiscreteDistribution
from ..core.model import Message, Protocol, Transcript

__all__ = ["SequentialCompositionProtocol", "product_scenarios"]


class SequentialCompositionProtocol(Protocol):
    """Run ``copies`` independent instances of ``base``, back to back.

    Each player's input must be a sequence of length ``copies``; copy
    ``c`` is played with the players' ``c``-th input entries.  The output
    is the tuple of per-copy outputs.
    """

    def __init__(self, base: Protocol, copies: int) -> None:
        if copies < 1:
            raise ValueError(f"need at least one copy, got {copies}")
        super().__init__(base.num_players)
        self._base = base
        self._copies = copies

    @property
    def base(self) -> Protocol:
        return self._base

    @property
    def copies(self) -> int:
        return self._copies

    @property
    def max_messages(self) -> int:
        """``copies`` times the base bound: each copy is one run of
        ``base``, and the next starts when it halts."""
        return self._copies * self._base.max_messages

    # State: (copy index, base state of the running copy,
    #         tuple of finished copies' outputs, messages in current copy)
    def initial_state(self) -> Any:
        return (0, self._base.initial_state(), (), Transcript())

    def advance_state(self, state: Any, message: Message) -> Any:
        copy, base_state, outputs, base_board = state
        base_state = self._base.advance_state(base_state, message)
        base_board = base_board.extend(message)
        # Roll over to the next copy when the running one halts.
        while (
            copy < self._copies
            and self._base.next_speaker(base_state, base_board) is None
        ):
            outputs = outputs + (
                self._base.output(base_state, base_board),
            )
            copy += 1
            base_state = self._base.initial_state()
            base_board = Transcript()
        return (copy, base_state, outputs, base_board)

    def next_speaker(self, state: Any, board: Transcript) -> Optional[int]:
        copy, base_state, _outputs, base_board = state
        if copy >= self._copies:
            return None
        return self._base.next_speaker(base_state, base_board)

    def message_distribution(
        self, state: Any, player: int, player_input: Any, board: Transcript
    ) -> DiscreteDistribution:
        copy, base_state, _outputs, base_board = state
        inputs = tuple(player_input)
        if len(inputs) != self._copies:
            raise ValueError(
                f"each player needs {self._copies} per-copy inputs, got "
                f"{len(inputs)}"
            )
        return self._base.message_distribution(
            base_state, player, inputs[copy], base_board
        )

    def output(self, state: Any, board: Transcript) -> Tuple[Any, ...]:
        copy, base_state, outputs, base_board = state
        if copy < self._copies:
            # The final copy may have halted exactly at the last message;
            # advance_state already rolled it over, so reaching here means
            # output was requested mid-protocol.
            outputs = outputs + (self._base.output(base_state, base_board),)
        return outputs

    def initial_state_check(self) -> None:  # pragma: no cover - debug aid
        """Sanity helper: the base protocol must not halt on the empty
        board with no output (degenerate base)."""
        base_state = self._base.initial_state()
        if self._base.next_speaker(base_state, Transcript()) is None:
            raise ValueError("base protocol halts immediately")


def product_scenarios(
    per_copy: Sequence[DiscreteDistribution],
) -> DiscreteDistribution:
    """The input distribution for a composed protocol, from per-copy
    input distributions.

    Each per-copy distribution is over ``k``-tuples (one input per
    player); the product distribution is over ``k``-tuples of
    ``copies``-tuples, i.e. transposed so that each *player* holds the
    tuple of its per-copy inputs — the composed protocol's input format.
    """
    if not per_copy:
        raise ValueError("need at least one per-copy distribution")
    combined = per_copy[0].map(lambda x: (x,))
    for dist in per_copy[1:]:
        combined = combined.product(dist).map(
            lambda pair: pair[0] + (pair[1],)
        )
    def transpose(copies_of_ktuples):
        k = len(copies_of_ktuples[0])
        return tuple(
            tuple(copy[i] for copy in copies_of_ktuples) for i in range(k)
        )
    return combined.map(transpose)

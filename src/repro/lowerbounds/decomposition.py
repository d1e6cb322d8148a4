"""Lemma 3: the product structure of transcript probabilities.

For any transcript :math:`\\ell` of a (private-coin) blackboard protocol
there are functions :math:`q^\\ell_{i,b}` such that

.. math::
    \\Pr[\\Pi(X) = \\ell] = \\prod_{i=1}^{k} q^\\ell_{i, X_i}.

The paper proves this by induction on rounds: when player ``i`` speaks,
the probability of its message depends only on its own input and the
board.  This module computes the :math:`q` factors *from the protocol
itself* by replaying the transcript and multiplying each speaker's
per-message probability — so the decomposition is derived from code, and
the test suite verifies the product identity exactly against the
protocol-tree transcript distribution.

From the factors we obtain the ratios
:math:`\\alpha^\\ell_i = q^\\ell_{i,0} / q^\\ell_{i,1}` that drive the
Lemma 4 posterior formula and the whole Lemma 5 good-transcript analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from ..core.model import Protocol, Transcript

__all__ = [
    "transcript_factors",
    "TranscriptFactors",
]


@dataclass(frozen=True)
class TranscriptFactors:
    """The Lemma 3 factors of a single transcript.

    ``factors[i][b]`` is :math:`q^\\ell_{i,b}`: the probability, taken
    over player ``i``'s private coins, that player ``i`` writes exactly
    its messages of :math:`\\ell` (at the right times) when its input is
    ``b`` — i.e. the product of its per-message probabilities along the
    transcript.  Players who never speak have factor 1 for every input.
    """

    transcript: Transcript
    factors: Tuple[Dict[Any, float], ...]

    def probability(self, inputs: Sequence[Any]) -> float:
        """:math:`\\Pr[\\Pi(inputs) = \\ell] = \\prod_i q_{i, inputs_i}`."""
        if len(inputs) != len(self.factors):
            raise ValueError(
                f"{len(self.factors)} players but {len(inputs)} inputs"
            )
        product = 1.0
        for factor, value in zip(self.factors, inputs):
            product *= factor[value]
        return product

    def alpha(self, player: int, zero: Any = 0, one: Any = 1) -> float:
        """:math:`\\alpha^\\ell_i = q^\\ell_{i,0} / q^\\ell_{i,1}`.

        Returns ``inf`` when :math:`q_{i,1} = 0 < q_{i,0}` (the posterior
        of a zero is then 1, per Lemma 4) and ``nan`` when both vanish
        (the transcript is unreachable regardless of player ``i``).
        """
        q0 = self.factors[player][zero]
        q1 = self.factors[player][one]
        if q1 > 0.0:
            return q0 / q1
        if q0 > 0.0:
            return math.inf
        return math.nan


def transcript_factors(
    protocol: Protocol,
    transcript: Transcript,
    input_values: Sequence[Sequence[Any]],
) -> TranscriptFactors:
    """Compute the Lemma 3 factors of ``transcript``.

    Parameters
    ----------
    protocol:
        The protocol that (may have) produced the transcript.
    transcript:
        A complete or partial transcript; factors multiply over exactly
        the messages present.
    input_values:
        ``input_values[i]`` is the list of candidate input values for
        player ``i`` over which :math:`q_{i,\\cdot}` is tabulated (for
        one-bit tasks, ``[0, 1]``).

    Raises
    ------
    ValueError
        If the transcript's speaking order is inconsistent with the
        protocol's (board-determined) turn function.
    """
    if len(input_values) != protocol.num_players:
        raise ValueError(
            f"protocol has {protocol.num_players} players but "
            f"{len(input_values)} candidate-value lists were given"
        )
    factors: List[Dict[Any, float]] = [
        {value: 1.0 for value in values} for values in input_values
    ]
    state = protocol.initial_state()
    board = Transcript()
    for message in transcript:
        expected = protocol.next_speaker(state, board)
        if expected != message.speaker:
            raise ValueError(
                f"transcript names speaker {message.speaker} but the "
                f"protocol's turn function says {expected!r}"
            )
        speaker = message.speaker
        for value in input_values[speaker]:
            dist = protocol.message_distribution(state, speaker, value, board)
            factors[speaker][value] *= dist[message.bits]
        state = protocol.advance_state(state, message)
        board = board.extend(message)
    return TranscriptFactors(
        transcript=transcript, factors=tuple(factors)
    )

"""One-shot compression of a full blackboard protocol (Section 6).

The Section 6 chain-rule identity

.. math::
    IC(\\Pi) = \\sum_j I(M_j; X_{i_j} \\mid M_{<j})
             = \\sum_j \\mathbb{E}\\,
               D\\bigl(\\eta_j \\,\\|\\, \\nu_j\\bigr)

says the information cost accumulates round by round as the divergence
between the speaker's true next-message distribution :math:`\\eta_j` and
the external observer's prediction :math:`\\nu_j`.  The compressed
protocol replaces each message with a Lemma 7 sampling round against
exactly these two distributions.

:class:`ObserverPosterior` maintains the external observer's exact
posterior over the input tuple given the board so far (a Bayesian filter
whose per-message update is precisely the Lemma 3 factor of the speaking
player), from which :math:`\\nu_j` is derived.  :func:`compress_execution`
then runs the whole pipeline for one execution; because the Lemma 7
simulator emits the true message exactly (:math:`X \\sim \\eta`), the
compressed protocol's transcript distribution equals the original's, and
the only question — the one the benchmarks measure — is the number of
bits spent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from ..information.distribution import DiscreteDistribution
from ..information.divergence import kl_divergence
from ..core.model import Message, Protocol, ProtocolViolation, Transcript
from .sampling import SampledMessage, simulate_sampling_round

__all__ = [
    "ObserverPosterior",
    "CompressedRound",
    "CompressedExecution",
    "compress_execution",
]


class ObserverPosterior:
    """The external observer's exact posterior over input tuples.

    Starts at the public input distribution; each observed message ``m``
    by speaker ``i`` multiplies the weight of every input tuple ``x`` by
    :math:`\\Pr[m \\mid X_i = x_i, \\text{board}]` (the Lemma 3 factor),
    then renormalizes.  Because the factor depends on ``x`` only through
    ``x_i``, message distributions are cached per distinct ``x_i``.
    """

    def __init__(self, protocol: Protocol, prior: DiscreteDistribution) -> None:
        self._protocol = protocol
        self._weights: Dict[Tuple[Any, ...], float] = dict(prior.items())

    def distribution(self) -> DiscreteDistribution:
        """The current posterior over input tuples."""
        return DiscreteDistribution(self._weights, normalize=True)

    def predictive(
        self, state: Any, speaker: int, board: Transcript
    ) -> DiscreteDistribution:
        """The observer's prediction :math:`\\nu` of the next message:
        the posterior mixture of the speaker's message distributions."""
        per_input: Dict[Any, DiscreteDistribution] = {}
        message_weights: Dict[Any, float] = {}
        total = sum(self._weights.values())
        for x, weight in self._weights.items():
            if weight <= 0.0:
                continue
            xi = x[speaker]
            dist = per_input.get(xi)
            if dist is None:
                dist = self._protocol.message_distribution(
                    state, speaker, xi, board
                )
                per_input[xi] = dist
            for bits, p in dist.items():
                message_weights[bits] = (
                    message_weights.get(bits, 0.0) + weight * p
                )
        return DiscreteDistribution(
            {m: w / total for m, w in message_weights.items()},
            normalize=True,
        )

    def observe(
        self, state: Any, speaker: int, board: Transcript, bits: str
    ) -> None:
        """Bayesian update after the speaker writes ``bits``."""
        per_input: Dict[Any, float] = {}
        cache: Dict[Any, DiscreteDistribution] = {}
        new_weights: Dict[Tuple[Any, ...], float] = {}
        for x, weight in self._weights.items():
            if weight <= 0.0:
                continue
            xi = x[speaker]
            if xi not in per_input:
                dist = cache.get(xi)
                if dist is None:
                    dist = self._protocol.message_distribution(
                        state, speaker, xi, board
                    )
                    cache[xi] = dist
                per_input[xi] = dist[bits]
            likelihood = per_input[xi]
            if likelihood > 0.0:
                new_weights[x] = weight * likelihood
        if not new_weights:
            raise ValueError(
                f"observed message {bits!r} has zero probability under the "
                "posterior — inconsistent execution"
            )
        self._weights = new_weights


@dataclass(frozen=True)
class CompressedRound:
    """One round of the compressed execution."""

    speaker: int
    message: SampledMessage
    divergence: float            # D(eta || nu) for this round's pair
    original_bits: int           # what the uncompressed protocol writes

    @property
    def compressed_bits(self) -> int:
        return self.message.cost.total_bits


@dataclass(frozen=True)
class CompressedExecution:
    """A full compressed execution: the realized transcript is exactly a
    sample of the original protocol's, at the compressed bit cost."""

    transcript: Transcript
    output: Any
    rounds: Tuple[CompressedRound, ...]

    @property
    def compressed_bits(self) -> int:
        return sum(r.compressed_bits for r in self.rounds)

    @property
    def original_bits(self) -> int:
        return sum(r.original_bits for r in self.rounds)

    @property
    def total_divergence(self) -> float:
        """The realized sum of per-round divergences; its expectation over
        inputs and coins is exactly :math:`IC(\\Pi)` (the chain rule)."""
        return sum(r.divergence for r in self.rounds)


def compress_execution(
    protocol: Protocol,
    input_dist: DiscreteDistribution,
    inputs: Sequence[Any],
    rng: random.Random,
) -> CompressedExecution:
    """Run one compressed execution of ``protocol`` on ``inputs``.

    ``input_dist`` is the public input distribution (over input tuples)
    from which the observer's prior is formed; ``inputs`` is the actual
    input tuple, which must lie in its support.  A run may write
    ``protocol.max_messages`` messages; one more raises
    :class:`~repro.core.model.ProtocolViolation`, as in every engine.
    """
    protocol.validate_inputs(inputs)
    if tuple(inputs) not in input_dist:
        raise ValueError("actual inputs must lie in the support of input_dist")
    posterior = ObserverPosterior(protocol, input_dist)
    state = protocol.initial_state()
    board = Transcript()
    rounds: List[CompressedRound] = []
    max_messages = protocol.max_messages
    while True:
        speaker = protocol.next_speaker(state, board)
        if speaker is None:
            output = protocol.output(state, board)
            return CompressedExecution(
                transcript=board, output=output, rounds=tuple(rounds)
            )
        if len(board) == max_messages:
            raise ProtocolViolation(
                f"protocol did not halt within {max_messages} messages"
            )
        eta = protocol.message_distribution(
            state, speaker, inputs[speaker], board
        )
        nu = posterior.predictive(state, speaker, board)
        universe = sorted(set(eta.support()) | set(nu.support()))
        sampled = simulate_sampling_round(eta, nu, rng, universe=universe)
        divergence = kl_divergence(eta, nu)
        rounds.append(
            CompressedRound(
                speaker=speaker,
                message=sampled,
                divergence=divergence,
                original_bits=len(sampled.value),
            )
        )
        posterior.observe(state, speaker, board, sampled.value)
        message = Message(speaker=speaker, bits=sampled.value)
        state = protocol.advance_state(state, message)
        board = board.extend(message)

"""Lemma 6: the :math:`\\Omega(k)` communication bound for
:math:`\\mathrm{AND}_k`.

The paper's argument: fix a deterministic protocol and look at the
players :math:`p_1, \\ldots, p_\\ell` who speak on the all-ones input.
If :math:`\\ell` is small, then with noticeable probability (under
:math:`\\mu_{\\epsilon'}`) the input is *not* all-ones yet all the
speakers hold 1 — the transcript is then *identical* to the all-ones
transcript, and the protocol must give the same (now wrong) answer.

This module makes that argument executable (the transcript collision
itself is checked in ``tests/lowerbounds/test_fooling.py``):

* :func:`speakers_on_all_ones` — the speaker sequence of a deterministic
  protocol on :math:`1^k`;
* :func:`lemma6_report` — the quantitative content: the collision
  probability :math:`(1 - \\epsilon')(1 - \\ell/k)`, the implied error
  lower bound, and the protocol's exact distributional error for
  comparison;
* :class:`TruncatedAndProtocol` — a family of deterministic protocols
  that stop after a communication budget of ``budget`` players; the E4
  benchmark sweeps the budget to exhibit the error cliff Lemma 6
  predicts: error stays > ε until :math:`\\Theta(k)` players have
  spoken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from ..information.distribution import DiscreteDistribution
from ..core.analysis import distributional_error
from ..core.model import Message, Protocol, Transcript
from ..core.runner import run_protocol
from .hard_distribution import lemma6_distribution

__all__ = [
    "speakers_on_all_ones",
    "Lemma6Report",
    "lemma6_report",
    "TruncatedAndProtocol",
]


def speakers_on_all_ones(protocol: Protocol) -> List[int]:
    """The distinct players that speak when the input is :math:`1^k`,
    in first-speaking order.  The protocol must be deterministic."""
    k = protocol.num_players
    run = run_protocol(protocol, tuple([1] * k))
    seen: List[int] = []
    for speaker in run.transcript.speakers():
        if speaker not in seen:
            seen.append(speaker)
    return seen


@dataclass(frozen=True)
class Lemma6Report:
    """Quantitative summary of the Lemma 6 argument on one protocol."""

    k: int
    eps_prime: float
    num_speakers_on_all_ones: int
    collision_probability: float  # (1 - ε')(1 - ℓ/k) = Pr[E]
    error_lower_bound: float      # what Lemma 6 forces (0 if ℓ is large)
    exact_error: float            # protocol's true error under μ_{ε'}
    all_ones_output: int

    @property
    def bound_holds(self) -> bool:
        """Whether the protocol's exact error meets the forced bound."""
        return self.exact_error >= self.error_lower_bound - 1e-9


def lemma6_report(
    protocol: Protocol, *, eps_prime: float = 0.2
) -> Lemma6Report:
    """Run the complete Lemma 6 accounting for a deterministic protocol.

    Under :math:`\\mu_{\\epsilon'}`:

    * if the protocol answers 0 on :math:`1^k`, it errs with probability
      at least :math:`\\epsilon'`;
    * otherwise, it errs whenever a non-speaker holds the zero, i.e. with
      probability at least :math:`(1 - \\epsilon')(1 - \\ell/k)` where
      :math:`\\ell` is the number of distinct all-ones speakers.

    The report carries both the forced lower bound and the exact error,
    so tests and benchmarks can assert ``exact >= bound``.
    """
    k = protocol.num_players
    mu = lemma6_distribution(k, eps_prime)
    all_ones = tuple([1] * k)
    reference = run_protocol(protocol, all_ones)
    speakers = speakers_on_all_ones(protocol)
    ell = len(speakers)
    collision = (1.0 - eps_prime) * (1.0 - ell / k)
    if reference.output == 0:
        bound = eps_prime
    else:
        bound = collision
    exact = distributional_error(
        protocol, mu, lambda inputs: int(all(inputs))
    )
    return Lemma6Report(
        k=k,
        eps_prime=eps_prime,
        num_speakers_on_all_ones=ell,
        collision_probability=collision,
        error_lower_bound=bound,
        exact_error=exact,
        all_ones_output=reference.output,
    )


class TruncatedAndProtocol(Protocol):
    """Sequential AND that gives up after ``budget`` speakers.

    Players 0..budget-1 write their bit in order (halting early on a 0,
    like :class:`~repro.protocols.and_protocols.SequentialAndProtocol`);
    if all ``budget`` wrote 1, the protocol outputs 1 without hearing the
    remaining players.  For ``budget = k`` this is exactly the sequential
    AND protocol (zero error); for ``budget < k`` Lemma 6 forces error at
    least :math:`(1 - \\epsilon')(1 - \\text{budget}/k)` under
    :math:`\\mu_{\\epsilon'}` — the E4 benchmark sweeps this cliff.
    """

    def __init__(self, k: int, budget: int) -> None:
        super().__init__(k)
        if not 0 <= budget <= k:
            raise ValueError(
                f"budget must lie in [0, {k}], got {budget}"
            )
        self._budget = budget

    @property
    def budget(self) -> int:
        return self._budget

    @property
    def max_messages(self) -> int:
        """``budget``: players ``0..budget-1`` speak at most once each."""
        return self._budget

    def initial_state(self) -> Any:
        return (0, False)

    def advance_state(self, state: Any, message: Message) -> Any:
        count, saw_zero = state
        return (count + 1, saw_zero or message.bits == "0")

    def next_speaker(self, state: Any, board: Transcript) -> Optional[int]:
        count, saw_zero = state
        if saw_zero or count >= self._budget:
            return None
        return count

    def message_distribution(
        self, state: Any, player: int, player_input: Any, board: Transcript
    ) -> DiscreteDistribution:
        bit = int(player_input)
        if bit not in (0, 1):
            raise ValueError(f"AND inputs must be bits, got {player_input!r}")
        return DiscreteDistribution.point_mass("1" if bit else "0")

    def output(self, state: Any, board: Transcript) -> int:
        _count, saw_zero = state
        return 0 if saw_zero else 1

"""Amortized compression of many independent instances (Theorem 3).

The scheme: run ``n`` independent copies of a protocol *round-
synchronously* (first everyone's round 1, then round 2, ...), and in each
super-round compress each speaking player's bundle of per-copy messages
with a single Lemma 7 sampling round against the product distributions

.. math::
    \\eta = \\prod_c \\eta_c, \\qquad \\nu = \\prod_c \\nu_c,

where :math:`\\eta_c` is the speaker's true next-message law in copy
``c`` and :math:`\\nu_c` the external observer's prediction.  KL
divergence is additive over the product, so the batch costs
:math:`\\sum_c D(\\eta_c \\| \\nu_c) + O(\\log(\\cdot))` bits — the
:math:`O(\\log)` overhead is paid once per (super-round, speaker) instead
of once per copy, which is exactly why the per-copy cost converges to the
information cost as :math:`n \\to \\infty`:

.. math::
    \\frac{C}{n} = \\frac{n\\,IC(\\Pi) + r\\,O(\\log(n\\,IC(\\Pi)))}{n}
    \\;\\longrightarrow\\; IC(\\Pi).

The paper assumes (for exposition) a fixed speaking order; our
implementation handles board-dependent orders by grouping the active
copies by their next speaker in each super-round — every player knows
each copy's board, hence each copy's speaker, so the grouping is public
information and costs nothing.

The product universes are astronomically large, so the batch sampling
round uses :func:`repro.compression.sampling.simulate_sampling_round`
with pre-sampled per-copy messages and the conservative curve-mass
bounds; the charged bits upper-bound the true protocol's (see the module
docstring there and DESIGN.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..information.distribution import DiscreteDistribution
from ..information.divergence import kl_divergence, log_ratio
from ..core.model import Message, Protocol, Transcript
from .one_shot import ObserverPosterior
from .sampling import simulate_sampling_round

__all__ = ["BatchRecord", "AmortizedReport", "compress_parallel_copies"]

#: Super-rounds after which a run whose copies have not all halted
#: raises.
_MAX_SUPER_ROUNDS = 100_000


@dataclass(frozen=True)
class BatchRecord:
    """One compressed (super-round, speaker) batch."""

    super_round: int
    speaker: int
    copies_in_batch: int
    divergence: float      # sum of per-copy D(eta_c || nu_c)
    compressed_bits: int
    original_bits: int     # what the uncompressed copies would write


@dataclass(frozen=True)
class AmortizedReport:
    """Result of one amortized compressed execution over all copies."""

    copies: int
    outputs: Tuple[Any, ...]
    batches: Tuple[BatchRecord, ...]
    super_rounds: int

    @property
    def compressed_bits(self) -> int:
        return sum(b.compressed_bits for b in self.batches)

    @property
    def original_bits(self) -> int:
        return sum(b.original_bits for b in self.batches)

    @property
    def per_copy_bits(self) -> float:
        return self.compressed_bits / self.copies

    @property
    def total_divergence(self) -> float:
        return sum(b.divergence for b in self.batches)

    @property
    def per_copy_divergence(self) -> float:
        """Realized information revealed per copy; averages to
        :math:`IC(\\Pi)` over inputs and coins."""
        return self.total_divergence / self.copies


@dataclass
class _CopyState:
    inputs: Tuple[Any, ...]
    state: Any
    board: Transcript
    posterior: ObserverPosterior
    halted: bool = False


def compress_parallel_copies(
    protocol: Protocol,
    per_copy_input_dist: DiscreteDistribution,
    copies: int,
    rng: random.Random,
    *,
    inputs_per_copy: Optional[Sequence[Sequence[Any]]] = None,
) -> AmortizedReport:
    """Run one amortized compressed execution of ``copies`` independent
    instances of ``protocol``.

    Parameters
    ----------
    protocol:
        The base protocol.
    per_copy_input_dist:
        The common input distribution of every copy (the observer's
        prior); also used to sample inputs when ``inputs_per_copy`` is
        not given.
    copies:
        Number of independent instances ``n``.
    inputs_per_copy:
        Optional fixed inputs (one tuple per copy); each must lie in the
        support of ``per_copy_input_dist``.
    """
    if copies < 1:
        raise ValueError(f"need at least one copy, got {copies}")
    if inputs_per_copy is None:
        inputs_per_copy = [
            per_copy_input_dist.sample(rng) for _ in range(copies)
        ]
    if len(inputs_per_copy) != copies:
        raise ValueError(
            f"{copies} copies but {len(inputs_per_copy)} input tuples"
        )
    states: List[_CopyState] = []
    for inputs in inputs_per_copy:
        protocol.validate_inputs(inputs)
        states.append(
            _CopyState(
                inputs=tuple(inputs),
                state=protocol.initial_state(),
                board=Transcript(),
                posterior=ObserverPosterior(protocol, per_copy_input_dist),
            )
        )

    batches: List[BatchRecord] = []
    super_round = 0
    for super_round in range(1, _MAX_SUPER_ROUNDS + 1):
        # Public grouping: each copy's next speaker is a function of its
        # board alone.
        groups: Dict[int, List[int]] = {}
        for index, copy in enumerate(states):
            if copy.halted:
                continue
            speaker = protocol.next_speaker(copy.state, copy.board)
            if speaker is None:
                copy.halted = True
                continue
            groups.setdefault(speaker, []).append(index)
        if not groups:
            break
        for speaker in sorted(groups):
            member_indices = groups[speaker]
            sampled_values: List[str] = []
            total_log_ratio = 0.0
            total_divergence = 0.0
            original_bits = 0
            universe_size = 1
            for index in member_indices:
                copy = states[index]
                eta = protocol.message_distribution(
                    copy.state, speaker, copy.inputs[speaker], copy.board
                )
                nu = copy.posterior.predictive(copy.state, speaker, copy.board)
                message_bits = eta.sample(rng)
                sampled_values.append(message_bits)
                total_log_ratio += log_ratio(eta, nu, message_bits)
                total_divergence += kl_divergence(eta, nu)
                original_bits += len(message_bits)
                universe_size *= max(
                    len(set(eta.support()) | set(nu.support())), 1
                )
            batch_sample = simulate_sampling_round(
                None,
                None,
                rng,
                universe_size=universe_size,
                value=tuple(sampled_values),
                log_ratio=total_log_ratio,
            )
            batches.append(
                BatchRecord(
                    super_round=super_round,
                    speaker=speaker,
                    copies_in_batch=len(member_indices),
                    divergence=total_divergence,
                    compressed_bits=batch_sample.cost.total_bits,
                    original_bits=original_bits,
                )
            )
            # Advance every copy in the batch with its sampled message.
            for index, message_bits in zip(member_indices, sampled_values):
                copy = states[index]
                copy.posterior.observe(
                    copy.state, speaker, copy.board, message_bits
                )
                message = Message(speaker=speaker, bits=message_bits)
                copy.state = protocol.advance_state(copy.state, message)
                copy.board = copy.board.extend(message)
    else:
        raise RuntimeError(
            f"copies did not all halt within {_MAX_SUPER_ROUNDS} super-rounds"
        )

    outputs = tuple(
        protocol.output(copy.state, copy.board) for copy in states
    )
    return AmortizedReport(
        copies=copies,
        outputs=outputs,
        batches=tuple(batches),
        super_rounds=super_round,
    )

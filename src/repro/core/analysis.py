"""Exact information-cost and error analysis of blackboard protocols.

This module computes, exactly, the quantities the paper defines in
Section 3:

* external information cost :math:`IC_\\mu(\\Pi) = I(\\Pi; X)`
  (Definition 5) — :func:`external_information_cost`;
* conditional information cost
  :math:`CIC_\\mu(\\Pi) = I(\\Pi; X \\mid D)` (Definition 6) —
  :func:`conditional_information_cost`;
* internal information cost for two players (the notion of [7], mentioned
  for contrast in Section 6) — :func:`internal_information_cost`;
* distributional error, worst-case error over an input family, expected
  and worst-case communication.

All functions take an input distribution with *enumerable support* and use
:mod:`repro.core.tree` for exact protocol-tree enumeration: one shared
walk per call, however many inputs it covers.  The identity
:math:`IC_\\mu(\\Pi) \\le H(\\Pi) \\le |\\Pi|` (stated after Definition 5)
is asserted by the test suite using these same functions.

Every entry point except the two-party internal information cost takes
a ``medium=`` parameter (default: the blackboard); the coordinator and
graph media of :mod:`repro.topology` run through the same walk, and the
per-*view* generalization of the per-player decompositions lives in
:func:`repro.topology.analysis.per_view_information`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from ..information.distribution import DiscreteDistribution, JointDistribution
from ..information.entropy import (
    conditional_mutual_information,
    entropy,
    mutual_information,
)
from ..perf import kernels
from .model import BROADCAST, Medium, Protocol, Transcript
from .tasks import Task
from .tree import (
    joint_transcript_distribution,
    population_joint,
    transcript_distributions,
)

__all__ = [
    "transcript_joint",
    "conditional_transcript_joint",
    "external_information_cost",
    "conditional_information_cost",
    "internal_information_cost",
    "transcript_entropy",
    "distributional_error",
    "worst_case_error",
    "expected_communication",
    "worst_case_communication",
]


def transcript_joint(
    protocol: Protocol,
    input_dist: DiscreteDistribution,
    *,
    medium: Medium = BROADCAST,
) -> JointDistribution:
    """The exact joint law of ``(inputs, transcript)``.

    ``input_dist`` is over input tuples (one entry per player).  The
    result has named components ``inputs`` and ``transcript``.

    The walk runs over the law's encoded population
    (:func:`repro.perf.kernels.input_columns`, cached on the law): the
    scenario law ``(x,)`` is never built, since its masses are the law's
    own, renormalized as its constructor would
    (:meth:`~repro.perf.kernels.InputColumns.renormalized`), and each
    outcome is its own walk input.
    """
    population = kernels.input_columns(input_dist).renormalized()
    return population_joint(
        protocol, population, names=("inputs",), medium=medium
    )


def conditional_transcript_joint(
    protocol: Protocol,
    mu: DiscreteDistribution,
    *,
    medium: Medium = BROADCAST,
) -> JointDistribution:
    """The exact joint law of ``(inputs, aux, transcript)``.

    ``mu`` is over ``(x, d)`` pairs as in Definition 6: ``x`` is the input
    tuple and ``d`` the auxiliary variable (the paper's :math:`D`, e.g.
    the special player :math:`Z` of the Section 4 hard distribution).
    The walk runs over ``mu``'s encoded population (cached on the law):
    the distinct ``x`` with each pair's member code, and the aux column.
    """
    population = kernels.input_columns(mu, paired=True)
    return population_joint(
        protocol, population, names=("inputs", "aux"), medium=medium
    )


def external_information_cost(
    protocol: Protocol,
    input_dist: DiscreteDistribution,
    *,
    medium: Medium = BROADCAST,
) -> float:
    """External information cost :math:`I(\\Pi; X)` in bits (Definition 5);
    on a general ``medium``, of the full transcript across all links."""
    joint = transcript_joint(protocol, input_dist, medium=medium)
    return mutual_information(joint, "transcript", "inputs")


def conditional_information_cost(
    protocol: Protocol,
    mu: DiscreteDistribution,
    *,
    medium: Medium = BROADCAST,
) -> float:
    """Conditional information cost :math:`I(\\Pi; X \\mid D)` in bits
    (Definition 6), for ``mu`` over ``(inputs, aux)`` pairs."""
    joint = conditional_transcript_joint(protocol, mu, medium=medium)
    return conditional_mutual_information(joint, "transcript", "inputs", "aux")


def internal_information_cost(
    protocol: Protocol, input_dist: DiscreteDistribution
) -> float:
    """Two-party internal information cost
    :math:`I(\\Pi; X_1 \\mid X_2) + I(\\Pi; X_2 \\mid X_1)` in bits.

    Only defined for ``k = 2``; the paper notes this notion does not
    extend to the broadcast model for ``k > 2``.  Provided so tests can
    check the classical relation ``internal <= external`` for product
    distributions.
    """
    if protocol.num_players != 2:
        raise ValueError(
            "internal information cost is a two-player notion; protocol "
            f"has {protocol.num_players} players"
        )
    scenarios = input_dist.map(lambda x: (x[0], x[1]))
    joint = joint_transcript_distribution(
        protocol,
        scenarios,
        inputs_of=lambda scenario: (scenario[0], scenario[1]),
        names=("x1", "x2"),
    )
    return conditional_mutual_information(
        joint, "transcript", "x1", "x2"
    ) + conditional_mutual_information(joint, "transcript", "x2", "x1")


def transcript_entropy(
    protocol: Protocol,
    input_dist: DiscreteDistribution,
    *,
    medium: Medium = BROADCAST,
) -> float:
    """The entropy :math:`H(\\Pi)` of the transcript in bits.

    Upper-bounds the external information cost; the Section 6 argument
    that the sequential AND protocol has :math:`IC = O(\\log k)` bounds
    exactly this quantity.
    """
    joint = transcript_joint(protocol, input_dist, medium=medium)
    return entropy(joint.marginal("transcript"))


def distributional_error(
    protocol: Protocol,
    input_dist: DiscreteDistribution,
    evaluate: Callable[[Sequence[Any]], Any],
    *,
    medium: Medium = BROADCAST,
) -> float:
    """The exact error probability under ``input_dist`` (and the
    protocol's private coins) — the distributional setting
    :math:`D^\\mu_\\epsilon` of Section 3."""
    laws = transcript_distributions(
        protocol, input_dist.support(), medium=medium
    )
    outputs: dict = {}
    total = 0.0
    for inputs, p_inputs in input_dist.items():
        correct = evaluate(inputs)
        for transcript, p_transcript in laws[tuple(inputs)].items():
            if _output_for(protocol, transcript, outputs) != correct:
                total += p_inputs * p_transcript
    return total


def worst_case_error(
    protocol: Protocol,
    task: Task,
    inputs_iter: Optional[Iterable[Sequence[Any]]] = None,
    *,
    medium: Medium = BROADCAST,
) -> float:
    """The maximum, over the given inputs (default: the task's full
    domain), of the probability that the protocol errs.

    This is the worst-case error of Section 3's :math:`CC_\\epsilon`
    definition, computed exactly from the protocol tree.
    """
    if inputs_iter is None:
        inputs_iter = task.domain()
    inputs_list = list(inputs_iter)
    laws = transcript_distributions(protocol, inputs_list, medium=medium)
    outputs: dict = {}
    worst = 0.0
    for inputs in inputs_list:
        correct = task.evaluate(inputs)
        error = sum(
            p
            for transcript, p in laws[tuple(inputs)].items()
            if _output_for(protocol, transcript, outputs) != correct
        )
        worst = max(worst, error)
    return worst


def expected_communication(
    protocol: Protocol,
    input_dist: DiscreteDistribution,
    *,
    medium: Medium = BROADCAST,
) -> float:
    """The exact expected number of bits written, under ``input_dist`` and
    the protocol's private coins."""
    laws = transcript_distributions(
        protocol, input_dist.support(), medium=medium
    )
    total = 0.0
    for inputs, p_inputs in input_dist.items():
        total += p_inputs * sum(
            p * transcript.bits_written
            for transcript, p in laws[tuple(inputs)].items()
        )
    return total


def worst_case_communication(
    protocol: Protocol,
    inputs_iter: Iterable[Sequence[Any]],
    *,
    medium: Medium = BROADCAST,
) -> int:
    """The exact worst-case communication :math:`CC(\\Pi)` over the given
    inputs: the longest transcript reachable with positive probability."""
    laws = transcript_distributions(protocol, inputs_iter, medium=medium)
    if not laws:
        raise ValueError("no inputs supplied")
    return max(
        transcript.bits_written for law in laws.values() for transcript in law
    )


def _output_for(protocol: Protocol, transcript: Transcript, cache: dict) -> Any:
    """The protocol's output on a final transcript (with caching).

    The output is a function of the transcript alone, so one cache
    serves every input that reaches the transcript."""
    if transcript not in cache:
        state = protocol.replay_state(transcript)
        cache[transcript] = protocol.output(state, transcript)
    return cache[transcript]

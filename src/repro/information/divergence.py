"""Distances and divergences between discrete distributions.

The paper's Section 4 analysis rests on Kullback–Leibler divergence
(Definition 4) and its relationship to mutual information (Eq. 1); the
compression analysis of Section 6 measures the cost of simulating a
message drawn from a true distribution :math:`\\eta` given a prior
:math:`\\nu` in terms of :math:`D(\\eta \\| \\nu)`.

All divergences are in bits.
"""

from __future__ import annotations

import math
from typing import Any, Sequence, Union

from .distribution import DiscreteDistribution, JointDistribution

__all__ = [
    "kl_divergence",
    "total_variation",
    "jensen_shannon",
    "hellinger",
    "log_ratio",
    "mutual_information_as_divergence",
]


def kl_divergence(
    posterior: DiscreteDistribution, prior: DiscreteDistribution
) -> float:
    """KL divergence :math:`D(\\text{posterior} \\| \\text{prior})` in bits.

    Following the paper's Definition 4, the first argument is the "true"
    (posterior) distribution :math:`\\mu_1` and the second is the prior
    belief :math:`\\mu_2`.  Returns ``inf`` when the posterior places mass
    where the prior has none (absolute continuity fails).
    """
    total = 0.0
    for outcome, p in posterior.items():
        q = prior[outcome]
        if q == 0.0:
            return math.inf
        total += p * math.log2(p / q)
    # KL divergence is non-negative (Gibbs); clamp float round-off.
    return max(total, 0.0)


def log_ratio(
    posterior: DiscreteDistribution, prior: DiscreteDistribution, outcome: Any
) -> float:
    """The pointwise log-likelihood ratio
    :math:`\\log_2(\\eta(x) / \\nu(x))` used by the Lemma 7 sampler.

    Returns ``inf`` if the prior assigns zero mass to ``outcome``; raises
    if the posterior does (the sampler never selects such a point).
    """
    p = posterior[outcome]
    if p == 0.0:
        raise ValueError(f"outcome {outcome!r} is outside the posterior support")
    q = prior[outcome]
    if q == 0.0:
        return math.inf
    return math.log2(p / q)


def total_variation(
    first: DiscreteDistribution, second: DiscreteDistribution
) -> float:
    """Total-variation distance :math:`\\frac12 \\sum_x |p(x) - q(x)|`.

    Used to state the "samples from a distribution close to the transcript
    distribution" guarantee of the compression theorems (footnote 2).
    """
    outcomes = set(first.support()) | set(second.support())
    return 0.5 * sum(abs(first[o] - second[o]) for o in outcomes)


def jensen_shannon(
    first: DiscreteDistribution, second: DiscreteDistribution
) -> float:
    """Jensen–Shannon divergence in bits (symmetric, bounded by 1)."""
    mid = DiscreteDistribution.mixture([(0.5, first), (0.5, second)])
    return 0.5 * kl_divergence(first, mid) + 0.5 * kl_divergence(second, mid)


def hellinger(
    first: DiscreteDistribution, second: DiscreteDistribution
) -> float:
    """Hellinger distance :math:`\\sqrt{1 - \\sum_x \\sqrt{p(x) q(x)}}`."""
    bc = sum(
        math.sqrt(first[o] * second[o])
        for o in set(first.support()) | set(second.support())
    )
    return math.sqrt(max(1.0 - bc, 0.0))


def mutual_information_as_divergence(
    joint: JointDistribution,
    a: Union[int, str, Sequence[Any]],
    b: Union[int, str, Sequence[Any]],
) -> float:
    """Mutual information computed via Eq. (1) of the paper:

    .. math::
        I(A; B) = \\mathbb{E}_{b \\sim \\mu(B)}
            D\\bigl(\\mu(A \\mid B = b) \\,\\|\\, \\mu(A)\\bigr).

    This is deliberately a *different code path* from
    :func:`repro.information.entropy.mutual_information`; tests assert the
    two agree, validating the identity the lower bound relies on.
    """
    prior = joint.marginal(a)
    observed = joint.marginal(b)
    total = 0.0
    for value, p in observed.items():
        posterior = joint.conditional(a, b, value)
        total += p * kl_divergence(posterior, prior)
    return total

"""Kullback–Leibler divergence between discrete distributions.

The paper's Section 4 analysis rests on Kullback–Leibler divergence
(Definition 4) and its relationship to mutual information (Eq. 1,
property-tested in ``tests/information/test_divergence.py``); the
compression analysis of Section 6 measures the cost of simulating a
message drawn from a true distribution :math:`\\eta` given a prior
:math:`\\nu` in terms of :math:`D(\\eta \\| \\nu)`.

All divergences are in bits.
"""

from __future__ import annotations

import math
from typing import Any

from .distribution import DiscreteDistribution

__all__ = [
    "kl_divergence",
    "log_ratio",
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

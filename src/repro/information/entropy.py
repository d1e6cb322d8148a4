"""Entropy and mutual-information functionals (Definitions 1–3 of the paper).

All quantities are in bits (base-2 logarithms) and are computed exactly
from explicit :class:`~repro.information.distribution.DiscreteDistribution`
/ :class:`~repro.information.distribution.JointDistribution` objects.

The functions mirror the paper's preliminaries:

* :func:`entropy` — Definition 1, :math:`H(X)`.
* :func:`conditional_entropy` — Definition 2, :math:`H(X \\mid Y)`.
* :func:`mutual_information` — Definition 3, :math:`I(X; Y)`.
* :func:`conditional_mutual_information` — Definition 3,
  :math:`I(X; Y \\mid Z)`; this is the paper's conditional information
  cost when applied to (transcript; inputs | auxiliary variable).
* :func:`binary_entropy` — :math:`H(p)`, used in Eq. (3)–(4) of the paper.
"""

from __future__ import annotations

import math
from typing import Any, Sequence, Union

from .distribution import DiscreteDistribution, JointDistribution

__all__ = [
    "entropy",
    "binary_entropy",
    "conditional_entropy",
    "mutual_information",
    "conditional_mutual_information",
    "entropy_chain_terms",
]

Components = Union[int, str, Sequence[Any]]


def entropy(dist: DiscreteDistribution) -> float:
    """Shannon entropy :math:`H(X) = \\sum_x p(x) \\log_2 (1/p(x))` in bits.

    Outcomes outside the support contribute ``0 log 0 = 0`` by the paper's
    convention (they are never stored, so the sum is over the support).

    Delegates to :meth:`DiscreteDistribution.entropy`, which caches the
    value on the (immutable) distribution — chain-rule decompositions ask
    for the same marginal entropies many times.
    """
    return dist.entropy()


def binary_entropy(p: float) -> float:
    """The binary entropy function :math:`H(p)` in bits.

    ``H(0) = H(1) = 0`` by the convention :math:`0 \\log 0 = 0`.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy expects p in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def conditional_entropy(
    joint: JointDistribution,
    target: Components,
    given: Components,
) -> float:
    """Conditional entropy :math:`H(X \\mid Y)` in bits (Definition 2).

    Computed as the expectation, over ``y`` drawn from the marginal of
    ``given``, of the entropy of ``target`` conditioned on ``Y = y``.
    """
    given_marginal = joint.marginal(given)
    total = 0.0
    for value, p in given_marginal.items():
        total += p * entropy(joint.conditional(target, given, value))
    return total


def mutual_information(
    joint: JointDistribution,
    a: Components,
    b: Components,
) -> float:
    """Mutual information :math:`I(A; B)` in bits (Definition 3).

    Computed directly as
    :math:`\\sum_{a,b} p(a,b) \\log_2 \\frac{p(a,b)}{p(a) p(b)}`,
    which is numerically more robust than the entropy difference when the
    conditional distributions are nearly deterministic.
    """
    from ..perf import kernels

    fast = kernels.mutual_information_fast(joint, a, b)
    if fast is not None:
        return fast
    return _mutual_information_fold(joint, a, b)


def _mutual_information_fold(
    joint: JointDistribution, a: Components, b: Components
) -> float:
    """The scalar fold behind :func:`mutual_information`, for supports
    below the array path's gate and for component groups."""
    pa = joint.marginal(a)
    pb = joint.marginal(b)
    # Build the joint over (group_a, group_b) explicitly so that ``a`` and
    # ``b`` may each be a single component or a group of components.
    probs = {}
    for outcome, p in joint.items():
        key = (_project(joint, outcome, a), _project(joint, outcome, b))
        probs[key] = probs.get(key, 0.0) + p
    total = 0.0
    for (va, vb), p in probs.items():
        if p > 0.0:
            total += p * math.log2(p / (pa[va] * pb[vb]))
    return max(total, 0.0)


def _project(joint: JointDistribution, outcome, components: Components):
    if isinstance(components, (str, int)):
        index = joint._resolve(components)  # noqa: SLF001 - internal helper
        return outcome[index]
    indices = joint._resolve_many(components)  # noqa: SLF001
    return tuple(outcome[i] for i in indices)


def conditional_mutual_information(
    joint: JointDistribution,
    a: Components,
    b: Components,
    given: Components,
) -> float:
    """Conditional mutual information :math:`I(A; B \\mid C)` in bits.

    Computed as :math:`\\mathbb{E}_{c}\\, I(A; B \\mid C = c)`, which is the
    form used throughout the paper's Section 4 analysis.
    """
    from ..perf import kernels

    fast = kernels.conditional_mutual_information_fast(joint, a, b, given)
    if fast is not None:
        return fast
    given_marginal = joint.marginal(given)
    total = 0.0
    for value, p in given_marginal.items():
        single = isinstance(given, (str, int))
        if single:
            conditioned = joint.condition(
                lambda o, _i=joint._resolve(given), _v=value: o[_i] == _v
            )
        else:
            indices = joint._resolve_many(given)
            conditioned = joint.condition(
                lambda o, _idx=indices, _v=value: tuple(o[i] for i in _idx) == _v
            )
        total += p * mutual_information(conditioned, a, b)
    return total


def entropy_chain_terms(
    joint: JointDistribution, order: Sequence[Components]
) -> list:
    """The chain-rule decomposition ``H(A1), H(A2|A1), H(A3|A1 A2), ...``.

    Returns the list of per-term conditional entropies in the given order;
    they sum to the entropy of the full tuple.  Used by tests to validate
    the chain rule the paper's Section 6 analysis relies on.
    """
    terms = []
    seen: list = []
    for component in order:
        if not seen:
            terms.append(entropy(joint.marginal(component)))
        else:
            flat_seen = []
            for c in seen:
                if isinstance(c, (str, int)):
                    flat_seen.append(c)
                else:
                    flat_seen.extend(c)
            terms.append(conditional_entropy(joint, component, flat_seen))
        seen.append(component)
    return terms

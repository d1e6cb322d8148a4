"""The information/communication gap (Section 6, single-shot case).

For two players, any protocol compresses to roughly its external
information cost [3].  The paper's counterexample for :math:`k` players:

* the sequential :math:`\\mathrm{AND}_k` protocol has transcript entropy
  (hence external information cost) at most :math:`\\log_2(k + 1)` under
  *every* input distribution — the transcript is determined by the index
  of the first zero (or its absence);
* yet, by Lemma 6, *any* protocol for :math:`\\mathrm{AND}_k` must
  communicate :math:`\\Omega(k)` bits in the worst case.

So single-shot compression to the external information cost is
impossible for broadcast protocols: the gap is
:math:`\\Omega(k / \\log k)`.  :func:`and_gap_report` measures both sides
exactly for concrete ``k`` (experiment E5).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..information.distribution import DiscreteDistribution
from ..perf import kernels
from ..core.analysis import (
    external_information_cost,
    worst_case_communication,
)
from ..protocols.and_protocols import SequentialAndProtocol
from ..lowerbounds.hard_distribution import (
    and_hard_input_marginal,
    lemma6_distribution,
)

__all__ = ["GapReport", "and_gap_report", "lemma6_communication_bound"]


@dataclass(frozen=True)
class GapReport:
    """The measured two sides of the Section 6 separation for one ``k``."""

    k: int
    information_costs: Dict[str, float]   # per named input distribution
    entropy_bound: float                  # log2(k + 1)
    worst_case_communication: int         # exact CC of the protocol
    communication_lower_bound: float      # Lemma 6's Ω(k) requirement

    @property
    def max_information_cost(self) -> float:
        return max(self.information_costs.values())

    @property
    def gap_ratio(self) -> float:
        """Communication divided by information — the paper predicts
        :math:`\\Omega(k / \\log k)`."""
        return self.worst_case_communication / max(
            self.max_information_cost, 1e-12
        )


def lemma6_communication_bound(
    k: int, *, eps: float = 0.05, eps_prime: float = 0.2
) -> float:
    """The Lemma 6 consequence: any protocol for :math:`\\mathrm{AND}_k`
    with error at most ``eps`` must, on the all-ones input, let at least
    :math:`(1 - \\epsilon/(1-\\epsilon'))\\,k` players speak — hence
    communicate at least that many bits."""
    if not 0.0 < eps < eps_prime < 1.0:
        raise ValueError(
            "need 0 < eps < eps_prime < 1, got "
            f"eps={eps!r}, eps_prime={eps_prime!r}"
        )
    return (1.0 - eps / (1.0 - eps_prime)) * k


def and_gap_report(
    k: int,
    *,
    distributions: Optional[Dict[str, DiscreteDistribution]] = None,
) -> GapReport:
    """Measure information vs communication for the sequential
    :math:`\\mathrm{AND}_k` protocol.

    The default distribution suite: uniform bits, i.i.d. biased bits
    (:math:`\\Pr[1] = 1 - 1/k`), the Section 4 hard-distribution
    marginal, and the Lemma 6 distribution — the information cost must
    stay at most :math:`\\log_2(k + 1)` under all of them while the
    worst-case communication is exactly :math:`k`.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    protocol = SequentialAndProtocol(k)
    if distributions is None:
        # One default law at a time: each is built when its cost is
        # taken and dropped after it (at k = 16 a law holds 65,536
        # outcome tuples).
        information_costs = {
            name: external_information_cost(protocol, build())
            for name, build in _default_suite(k).items()
        }
    else:
        information_costs = {
            name: external_information_cost(protocol, dist)
            for name, dist in distributions.items()
        }
    # H(Π) upper-bounds IC under each distribution; report the analytic
    # bound the paper quotes.
    entropy_bound = math.log2(k + 1)
    cc = worst_case_communication(
        protocol, [tuple([1] * k)]
    )  # the all-ones path is the longest: all k players speak
    return GapReport(
        k=k,
        information_costs=information_costs,
        entropy_bound=entropy_bound,
        worst_case_communication=cc,
        communication_lower_bound=lemma6_communication_bound(k),
    )


def _default_suite(
    k: int,
) -> Dict[str, Callable[[], DiscreteDistribution]]:
    """The default input laws of :func:`and_gap_report` by name, each
    built only when its builder is called."""
    return {
        "uniform": lambda: _iid_bits(k, 0.5),
        "iid_biased": lambda: _iid_bits(k, 1.0 - 1.0 / k),
        "hard_marginal": lambda: and_hard_input_marginal(k),
        "lemma6": lambda: lemma6_distribution(k, 0.2),
    }


def _iid_bits(k: int, p_one: float) -> DiscreteDistribution:
    """The product distribution of ``k`` i.i.d. ``Bernoulli(p_one)`` bits
    as a distribution over input tuples, built with its input columns.

    ``p_one = 0.5`` is the uniform cube, float for float: every weight is
    ``2**-k`` exactly, so the normalizer is exactly 1.0, as it is for
    ``DiscreteDistribution.uniform`` over the same tuples.
    """
    np_ = kernels.require_numpy()
    # Kronecker fold in ``itertools.product`` order: each step appends
    # the next coordinate as the fastest-varying one, and every weight
    # is ``1.0`` times its factors in coordinate order.
    factors = np_.array([1.0 - p_one, p_one])
    weights = np_.ones(1)
    for _ in range(k):
        weights = np_.multiply.outer(weights, factors).ravel()
    # What the normalizing constructor stores: builtin ``sum()`` in item
    # order, then ``p * scale`` for every positive weight.
    scale = 1.0 / sum(weights.tolist())
    bits = (np_.arange(1 << k)[:, None] >> np_.arange(k - 1, -1, -1)) & 1
    outcomes = list(itertools.product((0, 1), repeat=k))
    keep = weights > 0.0
    if not bool(keep.all()):
        outcomes = list(itertools.compress(outcomes, keep.tolist()))
        bits = bits[keep]
        weights = weights[keep]
    return kernels.encoded_law(outcomes, weights * scale, bits)

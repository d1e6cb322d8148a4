"""The direct-sum machinery (Lemma 1 and the Theorem 4 additivity).

Lemma 1 (from [2], used verbatim by the paper) lower-bounds the
conditional information cost of :math:`\\mathrm{DISJ}_{n,k}` by ``n``
times that of :math:`\\mathrm{AND}_k`, provided the per-coordinate
distribution puts no mass on all-ones inputs and is product conditioned
on the auxiliary variable.  Its engine is the chain-rule superadditivity

.. math::
    I(\\Pi; X \\mid D) \\;\\ge\\; \\sum_{j=1}^{n} I(\\Pi; X^j \\mid D),

valid when the coordinates :math:`X^1, \\ldots, X^n` are independent
given :math:`D`.  :func:`coordinate_information_split` computes both
sides *exactly* for a concrete disjointness protocol, and
:func:`verify_superadditivity` asserts the inequality — executable
evidence for the decomposition step of the lower bound.

For Theorem 4 (tightness over product distributions), the relevant fact
is exact additivity of information cost over independent copies of a
protocol; :func:`information_additivity_report` checks
:math:`IC_{\\mu^m}(\\Pi^m) = m \\cdot IC_\\mu(\\Pi)` for the sequential
composition of ``m`` copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..information.distribution import DiscreteDistribution, JointDistribution
from ..information.entropy import conditional_mutual_information
from ..core.analysis import external_information_cost
from ..core.model import Protocol
from ..core.tree import joint_transcript_distribution
from ..protocols.composition import (
    SequentialCompositionProtocol,
    product_scenarios,
)

__all__ = [
    "coordinate_information_split",
    "verify_superadditivity",
    "InformationAdditivityReport",
    "information_additivity_report",
]


def coordinate_information_split(
    protocol: Protocol,
    mu_n: DiscreteDistribution,
    n: int,
) -> Tuple[float, List[float]]:
    """Exactly compute :math:`I(\\Pi; X \\mid D)` and all per-coordinate
    terms :math:`I(\\Pi; X^j \\mid D)` for a disjointness protocol.

    Parameters
    ----------
    protocol:
        A protocol over ``k`` bitmask inputs (e.g. a disjointness
        protocol).
    mu_n:
        A distribution over ``(masks, ds)`` pairs — see
        :func:`repro.lowerbounds.hard_distribution.disjointness_hard_distribution`.
    n:
        The number of coordinates (bits per mask).

    Returns
    -------
    (total, per_coordinate):
        The conditional information cost and the list of the ``n``
        per-coordinate conditional mutual informations.
    """
    joint = joint_transcript_distribution(
        protocol, mu_n, names=("inputs", "aux")
    )
    total = conditional_mutual_information(joint, "transcript", "inputs", "aux")
    per_coordinate: List[float] = []
    for j in range(n):
        projected = _project_coordinate(joint, j)
        per_coordinate.append(
            conditional_mutual_information(
                projected, "transcript", "coordinate", "aux"
            )
        )
    return total, per_coordinate


def _project_coordinate(joint: JointDistribution, j: int) -> JointDistribution:
    """Replace the masks component with the ``j``-th coordinate's bits
    (one bit per player) and the aux vector with its ``j``-th entry."""
    probs = {}
    for (masks, ds, transcript), p in joint.items():
        bits = tuple((mask >> j) & 1 for mask in masks)
        key = (bits, ds[j], transcript)
        probs[key] = probs.get(key, 0.0) + p
    return JointDistribution(
        probs, names=("coordinate", "aux", "transcript"), normalize=True
    )


#: Float round-off allowed in the Lemma 1 comparison.
SUPERADDITIVITY_TOLERANCE = 1e-9


def verify_superadditivity(
    protocol: Protocol,
    mu_n: DiscreteDistribution,
    n: int,
) -> Tuple[bool, float, List[float]]:
    """Check the Lemma 1 inequality
    :math:`I(\\Pi; X \\mid D) \\ge \\sum_j I(\\Pi; X^j \\mid D)` exactly
    (up to :data:`SUPERADDITIVITY_TOLERANCE` of float round-off).

    Returns ``(holds, total, per_coordinate)``.
    """
    total, per_coordinate = coordinate_information_split(protocol, mu_n, n)
    holds = total + SUPERADDITIVITY_TOLERANCE >= sum(per_coordinate)
    return (holds, total, per_coordinate)


@dataclass(frozen=True)
class InformationAdditivityReport:
    """Result of the Theorem 4 additivity check."""

    copies: int
    single_copy_ic: float
    composed_ic: float

    @property
    def per_copy_ic(self) -> float:
        return self.composed_ic / self.copies

    @property
    def additive(self) -> bool:
        """Whether :math:`IC(\\Pi^m) = m \\cdot IC(\\Pi)` within float
        tolerance."""
        return abs(self.composed_ic - self.copies * self.single_copy_ic) < 1e-7


def information_additivity_report(
    base: Protocol,
    per_copy_inputs: DiscreteDistribution,
    copies: int,
) -> InformationAdditivityReport:
    """Exactly compare :math:`IC_{\\mu^m}(\\Pi^m)` with
    :math:`m \\cdot IC_\\mu(\\Pi)` for sequential composition over
    independent per-copy inputs.

    This is the protocol-level additivity behind Theorem 4: for a product
    input distribution, solving ``m`` independent copies reveals exactly
    ``m`` times the information of one copy (no more, no less), so the
    amortized compression of Theorem 3 is tight.
    """
    single = external_information_cost(base, per_copy_inputs)
    composed = SequentialCompositionProtocol(base, copies)
    composed_inputs = product_scenarios([per_copy_inputs] * copies)
    total = external_information_cost(composed, composed_inputs)
    return InformationAdditivityReport(
        copies=copies, single_copy_ic=single, composed_ic=total
    )

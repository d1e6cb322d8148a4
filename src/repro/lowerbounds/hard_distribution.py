"""The hard input distributions of Section 4.

For the :math:`\\Omega(\\log k)` bound on :math:`\\mathrm{AND}_k`
(Section 4.1), the paper defines the distribution :math:`\\mu` on
``(X, Z)``:

* a uniformly random special player :math:`Z \\in [k]` with
  :math:`X_Z = 0`;
* every other player independently receives 0 with probability
  :math:`1/k`.

:math:`\\mu` satisfies the two conditions of Lemma 1: every input in the
support has :math:`\\bigwedge_i X_i = 0`, and conditioned on
:math:`Z = z` the coordinates are independent.

For the :math:`\\Omega(k)` bound (Lemma 6), the paper uses
:math:`\\mu_{\\epsilon'}`: all-ones with probability :math:`\\epsilon'`,
otherwise a single uniformly random player receives 0.

The full support of :math:`\\mu` has :math:`k \\cdot 2^{k-1}` points,
which caps exact analysis around :math:`k \\approx 14`; the analysis of
the paper itself only ever looks at inputs with at most three zeros
(:math:`\\mathcal{X}_2` vs :math:`\\mathcal{X}_3`), so we also provide a
*truncated* variant conditioned on at most ``max_zeros`` zeros, which
keeps the support polynomial in :math:`k` and lets the benchmarks push to
:math:`k = 64`.  Truncation is a conditioning of :math:`\\mu`, so it can
only lower the information cost; the measured :math:`\\Omega(\\log k)`
growth under the truncated distribution is therefore conservative.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from ..information.distribution import DiscreteDistribution

__all__ = [
    "and_hard_distribution",
    "and_hard_input_marginal",
    "conditional_zero_prior",
    "disjointness_hard_distribution",
    "lemma6_distribution",
]


def and_hard_distribution(
    k: int, *, max_zeros: Optional[int] = None
) -> DiscreteDistribution:
    """The Section 4.1 distribution :math:`\\mu` over ``(x, z)`` pairs.

    Outcomes are ``(x, z)`` where ``x`` is a ``k``-tuple of bits and
    ``z`` is the 0-based index of the special player.

    Parameters
    ----------
    k:
        Number of players (at least 2; with one player the conditional
        distribution degenerates).
    max_zeros:
        If given, condition on the input having at most this many zeros
        (the special player's zero included).  ``max_zeros >= 1``.
    """
    if k < 2:
        raise ValueError(f"the hard distribution needs k >= 2, got {k}")
    if max_zeros is not None and max_zeros < 1:
        raise ValueError(f"max_zeros must be >= 1, got {max_zeros!r}")
    p_zero = 1.0 / k
    probs: Dict[Tuple[Tuple[int, ...], int], float] = {}
    for z in range(k):
        others = [i for i in range(k) if i != z]
        budget = (max_zeros - 1) if max_zeros is not None else (k - 1)
        for extra_count in range(0, min(budget, k - 1) + 1):
            # The weight depends only on the zero count, and every
            # (bits, z) key occurs once, so it is stored as is.
            weight = (
                (1.0 / k)
                * (p_zero**extra_count)
                * ((1.0 - p_zero) ** (k - 1 - extra_count))
            )
            for zero_others in itertools.combinations(others, extra_count):
                bits = [1] * k
                bits[z] = 0
                for i in zero_others:
                    bits[i] = 0
                probs[(tuple(bits), z)] = weight
    return DiscreteDistribution(probs, normalize=True)


def and_hard_input_marginal(
    k: int, *, max_zeros: Optional[int] = None
) -> DiscreteDistribution:
    """The marginal of :math:`\\mu` on the inputs ``x`` alone."""
    return and_hard_distribution(k, max_zeros=max_zeros).map(
        lambda outcome: outcome[0]
    )


def conditional_zero_prior(k: int) -> float:
    """The prior :math:`\\Pr[X_i = 0 \\mid Z \\ne i] = 1/k` under
    :math:`\\mu` — the quantity the posterior must beat by a factor
    :math:`\\Omega(k)` for the Lemma 5 argument."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    return 1.0 / k


def disjointness_hard_distribution(
    n: int, k: int, *, max_zeros: Optional[int] = None
) -> DiscreteDistribution:
    """The product distribution :math:`\\mu^n` over
    ``((mask_1, ..., mask_k), (z_1, ..., z_n))``.

    Player inputs are integer bitmasks over the ``n``-coordinate
    universe (coordinate ``j`` of player ``i`` is bit ``j`` of mask
    ``i``), the format the disjointness protocols consume.  The support
    is exponential in ``n`` and ``k``; this constructor exists for the
    direct-sum experiments on tiny instances.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    base = and_hard_distribution(k, max_zeros=max_zeros)
    probs: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], float] = {}
    for combo in itertools.product(list(base.items()), repeat=n):
        masks = [0] * k
        zs = []
        weight = 1.0
        for j, ((bits, z), p) in enumerate(combo):
            weight *= p
            zs.append(z)
            for i in range(k):
                if bits[i]:
                    masks[i] |= 1 << j
        key = (tuple(masks), tuple(zs))
        probs[key] = probs.get(key, 0.0) + weight
    return DiscreteDistribution(probs, normalize=True)


def lemma6_distribution(k: int, eps_prime: float) -> DiscreteDistribution:
    """The Lemma 6 distribution over input tuples ``x``:

    with probability :math:`\\epsilon'` all players receive 1; otherwise a
    single uniformly random player receives 0 and the rest receive 1.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not 0.0 < eps_prime < 1.0:
        raise ValueError(
            f"eps_prime must lie strictly in (0, 1), got {eps_prime!r}"
        )
    probs: Dict[Tuple[int, ...], float] = {tuple([1] * k): eps_prime}
    for z in range(k):
        bits = [1] * k
        bits[z] = 0
        probs[tuple(bits)] = (1.0 - eps_prime) / k
    return DiscreteDistribution(probs, normalize=True)

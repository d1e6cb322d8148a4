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
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..information.distribution import DiscreteDistribution
from ..perf import kernels

__all__ = [
    "and_hard_distribution",
    "and_hard_input_marginal",
    "disjointness_hard_distribution",
    "lemma6_distribution",
]


def _validate(k: int, max_zeros: Optional[int]) -> None:
    if k < 2:
        raise ValueError(f"the hard distribution needs k >= 2, got {k}")
    if max_zeros is not None and max_zeros < 1:
        raise ValueError(f"max_zeros must be >= 1, got {max_zeros!r}")


def _zero_count_weights(k: int, max_zeros: Optional[int]) -> List[float]:
    """``weights[e]``: the unnormalized mass of one ``(x, z)`` outcome
    whose input has ``e`` zeros besides the special player's."""
    p_zero = 1.0 / k
    budget = (max_zeros - 1) if max_zeros is not None else (k - 1)
    return [
        (1.0 / k) * (p_zero**extra_count) * ((1.0 - p_zero) ** (k - 1 - extra_count))
        for extra_count in range(0, min(budget, k - 1) + 1)
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
    _validate(k, max_zeros)
    np_ = kernels.require_numpy()
    weights = _zero_count_weights(k, max_zeros)
    blocks = []
    masses: List[float] = []
    zs: List[int] = []
    for z in range(k):
        others = [i for i in range(k) if i != z]
        for extra_count, weight in enumerate(weights):
            block = _zero_rows(np_, k, z, others, extra_count)
            blocks.append(block)
            masses.extend(itertools.repeat(weight, block.shape[0]))
            zs.extend(itertools.repeat(z, block.shape[0]))
    rows = np_.concatenate(blocks)
    # The weight depends only on the zero count, and every (bits, z)
    # key occurs once, so the normalizing constructor's total is
    # builtin ``sum()`` over the weights in generation order, and it
    # stores ``p * scale`` for every positive weight.
    weight = np_.array(masses)
    scale = 1.0 / sum(masses)
    z_column = np_.array(zs, dtype=np_.int64)
    keep = weight > 0.0
    if not bool(keep.all()):
        rows, weight, z_column = rows[keep], weight[keep], z_column[keep]
    member, first = _first_seen_rows(np_, rows)
    inputs = _tuples(rows[first])
    outcomes = list(
        zip([inputs[j] for j in member.tolist()], z_column.tolist())
    )
    z_codes, z_values, _count = kernels._first_seen_codes(np_, z_column)
    return kernels.encoded_law(
        outcomes,
        weight * scale,
        rows[first],
        inputs=inputs,
        member=member,
        aux=(z_codes, z_values.tolist()),
    )


def _zero_rows(
    np_: Any, k: int, z: int, others: Sequence[int], extra: int
) -> Any:
    """The 0/1 rows with a zero at ``z`` and at each ``extra``-subset of
    ``others``, one row per subset in ``itertools.combinations`` order."""
    count = math.comb(len(others), extra)
    zeros = np_.fromiter(
        itertools.chain.from_iterable(itertools.combinations(others, extra)),
        dtype=np_.intp,
        count=count * extra,
    ).reshape(count, extra)
    rows = np_.ones((count, k), dtype=np_.int8)
    rows[:, z] = 0
    rows[np_.arange(count)[:, None], zeros] = 0
    return rows


def _tuples(rows: Any) -> List[Tuple[int, ...]]:
    """The rows of an integer matrix as tuples of ints."""
    return list(zip(*rows.T.tolist()))


def _first_seen_rows(np_: Any, rows: Any) -> Tuple[Any, Any]:
    """First-seen dense codes of the rows of a 0/1 matrix, and the first
    row carrying each code."""
    packed = np_.packbits(rows.astype(np_.uint8), axis=1)
    keys = np_.ascontiguousarray(packed).view(
        np_.dtype((np_.void, packed.shape[1]))
    ).ravel()
    _unique, first, inverse = np_.unique(
        keys, return_index=True, return_inverse=True
    )
    order = np_.argsort(first, kind="stable")
    rank = np_.empty(len(first), dtype=np_.int64)
    rank[order] = np_.arange(len(first), dtype=np_.int64)
    return rank[inverse.ravel()], first[order]


def and_hard_input_marginal(
    k: int, *, max_zeros: Optional[int] = None
) -> DiscreteDistribution:
    """The marginal of :math:`\\mu` on the inputs ``x`` alone.

    Built directly, without materializing the ``k * 2**(k-1)``-point
    :math:`\\mu`, yet float for float and in the item order of
    ``and_hard_distribution(k, max_zeros=...).map(lambda o: o[0])``:

    * :math:`\\mu`'s normalizer is builtin ``sum()`` over its weights in
      its own order (``z``, then the extra zero count, then the zero
      sets), so ``sum()`` runs over that same sequence;
    * an input with ``e + 1`` zeros is one :math:`\\mu` outcome per zero
      (each may be ``z``), all of equal mass, which ``map`` folds from
      ``0.0`` in ``z`` order;
    * ``map`` lists an input where :math:`\\mu` first lists it, at its
      lowest zero ``z``: for each ``z``, the extra zero sets above ``z``
      by count, then in ``itertools.combinations`` order.  Its
      normalizer is builtin ``sum()`` over the folded masses in that
      order.
    """
    _validate(k, max_zeros)
    weights = _zero_count_weights(k, max_zeros)
    mu_total = float(
        sum(
            itertools.chain.from_iterable(
                itertools.repeat(weight, math.comb(k - 1, extra_count))
                for _z in range(k)
                for extra_count, weight in enumerate(weights)
            )
        )
    )
    mu_scale = 1.0 / mu_total
    folded: List[float] = []
    for extra_count, weight in enumerate(weights):
        mass = weight * mu_scale
        acc = 0.0
        for _zero in range(extra_count + 1):
            acc += mass
        folded.append(acc)
    kept = [e for e, weight in enumerate(weights) if weight > 0.0]
    scale = 1.0 / float(
        sum(
            itertools.chain.from_iterable(
                itertools.repeat(folded[e], math.comb(k - 1 - z, e))
                for z in range(k)
                for e in kept
            )
        )
    )
    np_ = kernels.require_numpy()
    blocks = []
    masses: List[float] = []
    for z in range(k):
        for e in kept:
            block = _zero_rows(np_, k, z, range(z + 1, k), e)
            blocks.append(block)
            masses.extend(itertools.repeat(folded[e] * scale, block.shape[0]))
    rows = np_.concatenate(blocks)
    return kernels.encoded_law(_tuples(rows), np_.array(masses), rows)


def disjointness_hard_distribution(n: int, k: int) -> DiscreteDistribution:
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
    base = and_hard_distribution(k)
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
    np_ = kernels.require_numpy()
    # All ones, then one zero at each player in turn; the normalizing
    # constructor's total is builtin ``sum()`` over the weights in that
    # order, and every weight is positive.
    rows = np_.ones((k + 1, k), dtype=np_.int8)
    rows[np_.arange(1, k + 1), np_.arange(k)] = 0
    weights = [eps_prime] + [(1.0 - eps_prime) / k] * k
    scale = 1.0 / sum(weights)
    return kernels.encoded_law(_tuples(rows), np_.array(weights) * scale, rows)

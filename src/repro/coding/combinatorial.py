"""Combinatorial (combinadic) subset encoding.

The optimal Section 5 disjointness protocol writes a batch of
:math:`z_i / k` new zero coordinates "encoded as a subset of
:math:`Z_i`", costing :math:`\\lceil \\log_2 \\binom{z_i}{z_i/k} \\rceil`
bits — the amortized :math:`\\log(ek)` bits per coordinate that gives the
protocol its :math:`O(n \\log k)` term.  This module implements that
encoding exactly via the combinatorial number system: a bijection between
``m``-element subsets of ``{0, ..., n-1}`` and integers in
``[0, C(n, m))``, serialized at fixed width.

Also exposed: exact ``binomial``, subset ranking/unranking, and the bit
cost helper used by both the protocol and its analysis.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from .bitio import BitReader, BitWriter, Bits

__all__ = [
    "binomial",
    "subset_rank",
    "subset_unrank",
    "subset_code_width",
    "encode_subset",
    "decode_subset",
]


def binomial(n: int, m: int) -> int:
    """The exact binomial coefficient :math:`\\binom{n}{m}` (0 if invalid)."""
    if m < 0 or n < 0 or m > n:
        return 0
    return math.comb(n, m)


#: :func:`subset_rank` crosses a gap between consecutive elements longer
#: than this with one ``math.comb``, not candidate by candidate.
_RANK_GAP = 8

#: Past this many candidates per element, :func:`subset_unrank` finds
#: every element by estimate instead of scanning down to it.
_LEAP = 32


def subset_rank(subset: Sequence[int], n: int) -> int:
    """Rank an ``m``-subset of ``{0, ..., n-1}`` in colexicographic order.

    The subset must be strictly increasing.  The rank is
    :math:`\\sum_j \\binom{c_j}{j+1}` where :math:`c_j` is the ``j``-th
    (smallest-first) element — the standard combinadic.

    The terms are summed largest-first with one running coefficient
    (see :func:`subset_unrank`): exact integer steps instead of one
    ``math.comb`` per element; only a gap of more than 8 candidates
    between consecutive elements takes one ``math.comb`` instead.
    """
    elements = list(subset)
    previous = -1
    for element in elements:
        if element <= previous:
            raise ValueError("subset must be strictly increasing")
        if not 0 <= element < n:
            raise ValueError(f"element {element} outside universe of size {n}")
        previous = element
    if not elements:
        return 0
    size = len(elements)
    candidate = elements[-1]
    coefficient = math.comb(candidate, size)
    rank = 0
    for element in reversed(elements):
        if candidate - element > _RANK_GAP:
            coefficient = math.comb(element, size)
            candidate = element
        while candidate > element:
            coefficient = coefficient * (candidate - size) // candidate
            candidate -= 1
        rank += coefficient
        if size > 1:
            coefficient = coefficient * size // candidate
            size -= 1
            candidate -= 1
    return rank


def _element_at(remaining: int, limit: int, size: int) -> Tuple[int, int]:
    """The largest ``c <= limit`` with ``C(c, size) <= remaining``, and
    ``C(c, size)``, for ``1 <= remaining < C(limit + 1, size)``.

    ``c`` is estimated in floats, as the root of ``ln C(x, size) = ln
    remaining`` from ``C(x, size) ~ (x - (size-1)/2)^size / size!`` and
    two Newton steps on the log-gamma form; it is then settled exactly,
    from one ``math.comb``, by the steps ``C(c-1, s) = C(c, s) * (c - s)
    / c`` down and ``C(c+1, s) = C(c, s) * (c + 1) / (c + 1 - s)`` up.
    The estimate is off by at most a few candidates.
    """
    if size == 1:
        candidate = min(remaining, limit)
    else:
        target = math.log(remaining)
        log_factorial = math.lgamma(size + 1)
        x = math.exp((target + log_factorial) / size) + (size - 1) / 2
        for _ in range(2):
            x = max(x, size)
            error = math.lgamma(x + 1) - math.lgamma(x - size + 1) - (
                log_factorial + target
            )
            x -= error / math.log((x + 0.5) / (x - size + 0.5))
        candidate = min(max(int(x), size), limit)
    coefficient = math.comb(candidate, size)
    while coefficient > remaining:
        coefficient = coefficient * (candidate - size) // candidate
        candidate -= 1
    while True:
        above = coefficient * (candidate + 1) // (candidate + 1 - size)
        if above > remaining:
            return candidate, coefficient
        coefficient = above
        candidate += 1


def subset_unrank(rank: int, n: int, m: int) -> List[int]:
    """Inverse of :func:`subset_rank`: the ``rank``-th ``m``-subset of
    ``{0, ..., n-1}`` in colexicographic order.

    Elements are chosen largest-first: the largest element ``c``
    satisfies ``C(c, m) <= rank < C(c + 1, m)``, and is found by
    estimate (:func:`_element_at`: one float estimate, one
    ``math.comb``, a few exact steps).  The scan then keeps the
    coefficient of the current candidate and steps it with exact
    integers, ``C(c-1, m) = C(c, m) * (c - m) / c`` down the candidates
    and ``C(c-1, m-1) = C(c, m) * m / c`` after each choice: one
    small-factor multiply/divide per candidate below the largest
    element.  When the subset is sparser than one element in 32
    candidates (``n > 32 m``), every element is found by estimate, so
    the cost follows ``m`` rather than ``n``.
    """
    total = binomial(n, m)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range for C({n}, {m}) = {total}")
    subset: List[int] = []
    if m == 0:
        return subset
    if rank == 0:
        return list(range(m))
    leap = n > _LEAP * m
    remaining = rank
    size = m
    candidate, coefficient = _element_at(rank, n - 1, m)
    while True:
        while coefficient > remaining:
            coefficient = coefficient * (candidate - size) // candidate
            candidate -= 1
        subset.append(candidate)
        remaining -= coefficient
        if size == 1:
            break
        coefficient = coefficient * size // candidate
        size -= 1
        candidate -= 1
        if leap and coefficient > remaining > 0:
            candidate, coefficient = _element_at(remaining, candidate, size)
    subset.reverse()
    return subset


def subset_code_width(n: int, m: int) -> int:
    """Bits needed to encode an ``m``-subset of an ``n``-universe:
    :math:`\\lceil \\log_2 \\binom{n}{m} \\rceil` (0 when there is a single
    subset)."""
    count = binomial(n, m)
    if count <= 0:
        raise ValueError(f"no {m}-subsets of a universe of size {n}")
    return (count - 1).bit_length()


def encode_subset(subset: Sequence[int], n: int) -> Bits:
    """Encode a subset (of known size, against a known universe) as bits.

    The subset's *size* is not part of the encoding: in the Section 5
    protocol both the batch size ``z_i / k`` and the universe ``Z_i`` are
    determined by the board contents, so only the rank is written.
    """
    m = len(subset)
    width = subset_code_width(n, m)
    writer = BitWriter()
    writer.write_uint(subset_rank(subset, n), width)
    return writer.getvalue()


def decode_subset(reader: BitReader, n: int, m: int) -> List[int]:
    """Decode a subset written by :func:`encode_subset`.

    The caller supplies the universe size ``n`` and subset size ``m`` it
    derived from the board state.
    """
    width = subset_code_width(n, m)
    rank = reader.read_uint(width)
    return subset_unrank(rank, n, m)

"""Small integer-bitmask utilities shared across the protocol
implementations (player inputs are bitmasks over the coordinate
universe).

The disjointness-family codecs (Section 5's optimal protocol and the
union protocol) address coordinates by their *position* within a zone
:math:`Z_i`, the sorted set bits of a mask.  :func:`zone_positions`
and :func:`zone_mask` translate between the two views; both read one
memoized index per zone, so a zone that stays fixed for a whole cycle
is expanded once, not once per message.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, islice
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["bits_of", "popcount", "zone_positions", "zone_mask"]


#: Binary digits to 0/1 bytes (``translate`` runs about twice as fast
#: as ``replace`` on these strings).
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _set_bits(mask: int) -> Iterator[int]:
    """The set bit positions of a non-negative ``mask``, lowest first,
    lazily: the reversed binary digits, as 0/1 bytes, select their own
    indices in one C-level pass."""
    digits = bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)
    return compress(range(len(digits)), digits)


def bits_of(mask: int) -> List[int]:
    """The set bit positions of ``mask`` in increasing order."""
    if mask < 0:
        raise ValueError(f"mask must be non-negative, got {mask}")
    return list(_set_bits(mask))


def popcount(mask: int) -> int:
    """The number of set bits of ``mask``."""
    if mask < 0:
        raise ValueError(f"mask must be non-negative, got {mask}")
    return bin(mask).count("1")


@lru_cache(maxsize=8)
def _zone_index(zone: int) -> Tuple[Tuple[int, ...], Dict[int, int]]:
    """The sorted coordinates of ``zone`` and the map from each
    coordinate to its position among them.  Keyed on the whole mask,
    so it can never answer for a different zone."""
    coordinates = tuple(bits_of(zone))
    return coordinates, dict(zip(coordinates, range(len(coordinates))))


def zone_positions(
    mask: int, zone: int, limit: Optional[int] = None
) -> List[int]:
    """The positions, within the sorted coordinates of ``zone``, of the
    set bits of ``mask``, increasing; only the lowest ``limit`` of them
    when ``limit`` is given.  ``mask`` must be a non-negative subset of
    ``zone`` (a coordinate outside it raises ``KeyError``)."""
    index = _zone_index(zone)[1]
    return list(islice(map(index.__getitem__, _set_bits(mask)), limit))


def zone_mask(positions: Iterable[int], zone: int) -> int:
    """The inverse of :func:`zone_positions`: the mask of the
    coordinates of ``zone`` at ``positions``."""
    coordinates = _zone_index(zone)[0]
    mask = 0
    for position in positions:
        mask |= 1 << coordinates[position]
    return mask

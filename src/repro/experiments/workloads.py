"""Workload generators for the disjointness experiments.

The E1 scaling experiment needs input families that exercise a
protocol's worst case and its easy cases:

* :func:`partition_instance` — disjoint sets whose *complements*
  partition the universe: every coordinate must reach the board, the
  communication-maximizing situation for all three protocols.
* :func:`random_instance` — i.i.d. random sets with a given density.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

__all__ = [
    "partition_instance",
    "random_instance",
]


def partition_instance(n: int, k: int) -> Tuple[int, ...]:
    """Disjoint instance where player ``i``'s zeros are exactly the
    residue class ``i mod k`` — the canonical worst case: all ``n``
    coordinates must be written on the board before the protocol can
    answer "disjoint"."""
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n}, k={k}")
    full = (1 << n) - 1
    masks: List[int] = []
    for i in range(k):
        zeros = 0
        for j in range(i, n, k):
            zeros |= 1 << j
        masks.append(full ^ zeros)
    return tuple(masks)


def random_instance(
    n: int, k: int, rng: random.Random, *, density: float = 0.5
) -> Tuple[int, ...]:
    """Each coordinate of each player's set is present independently with
    probability ``density``.

    Bit ``j`` of a player's mask is ``rng.random() < density`` for that
    player's ``j``-th draw, consuming ``rng`` exactly as ``n`` calls to
    ``random()`` per player would.  ``random()`` reads two 32-bit words
    ``a, b`` of the generator and returns ``((a >> 5) * 2**26 + (b >> 6))
    / 2**53``; ``getrandbits(64 * n)`` reads the same ``2 * n`` words in
    the same order and lays them out least-significant first, so the
    comparison runs on the whole draw at once, as the exact integer test
    ``(a >> 5) << 26 | b >> 6 < ceil(density * 2**53)``.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density!r}")
    if n <= 0:
        return tuple([0] * k)
    import numpy as np  # noqa: PLC0415 - declared dependency, imported on use

    threshold = np.uint64(math.ceil(density * 2**53))
    masks = []
    # One draw per player: the whole k * n instance at once would hold
    # several arrays of 8 * k * n bytes.
    for _ in range(k):
        # Draw j is the little-endian 64-bit word ``a | b << 32``.
        pairs = np.frombuffer(
            rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u8"
        )
        values = (pairs >> 5 & 0x7FFFFFF) << 26 | pairs >> 38
        bits = np.packbits(values < threshold, bitorder="little")
        masks.append(int.from_bytes(bits.tobytes(), "little"))
    return tuple(masks)

"""The Section 5 batch turn, shared by the optimal disjointness protocol
and the union protocol.

In a batch cycle with zone :math:`Z_i` (the coordinates absent from the
board at cycle start, :math:`z = |Z_i|`), a player writes ``0`` (pass)
or ``1`` followed by the combinadic rank of an ``m``-subset of
:math:`Z_i`, :math:`m = \\lceil z/k \\rceil`, at the fixed width
:math:`\\lceil \\log_2 \\binom{z}{m} \\rceil`.  The subset is the ``m``
smallest of the player's new coordinates, as positions among the set
bits of the zone (:mod:`repro.coding.bitops`).

``z``, ``m`` and the width are fixed for a whole cycle, so
:func:`batch_zone` computes them once per zone, like
``bitops._zone_index``; each message then costs only the rank (or
unrank) of what it writes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from ..coding.bitio import BitReader
from ..coding.bitops import popcount, zone_mask, zone_positions
from ..coding.combinatorial import subset_code_width, subset_rank, subset_unrank

__all__ = ["batch_zone", "encode_batch_turn", "decode_batch_turn"]


@lru_cache(maxsize=8)
def batch_zone(zone: int, k: int) -> Tuple[int, int, int]:
    """``(z, m, width)`` of a batch cycle over ``zone`` with ``k``
    players: the zone size, the batch size :math:`\\lceil z/k \\rceil`
    and the rank's code width.  Keyed on the whole mask, so it can never
    answer for another zone."""
    z = popcount(zone)
    m = -(-z // k)
    return z, m, subset_code_width(z, m)


def encode_batch_turn(new: int, zone: int, k: int) -> str:
    """The batch-turn message of a player whose new coordinates are the
    mask ``new`` (a subset of ``zone``): a pass unless it holds ``m``."""
    z, m, width = batch_zone(zone, k)
    if popcount(new) < m:
        return "0"
    # The m smallest new coordinates.
    rank = subset_rank(zone_positions(new, zone, m), z)
    return "1" + format(rank, "b").zfill(width) if width else "1"


def decode_batch_turn(bits: str, zone: int, k: int) -> int:
    """The mask of coordinates a batch-turn message wrote (0 for a
    pass).  A well-formed message is read directly; any other goes
    through :class:`~repro.coding.bitio.BitReader`, which raises the
    typed error for its first defect."""
    z, m, width = batch_zone(zone, k)
    if bits == "0":
        return 0
    if len(bits) == width + 1 and bits[0] == "1":
        rank = int(bits[1:], 2) if width else 0
        return zone_mask(subset_unrank(rank, z, m), zone)
    reader = BitReader(bits)
    if not reader.read_flag():
        reader.expect_exhausted()
        return 0
    positions = subset_unrank(reader.read_uint(width), z, m)
    reader.expect_exhausted()
    return zone_mask(positions, zone)

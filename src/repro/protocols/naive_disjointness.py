"""The naive disjointness protocol from the paper's introduction.

"The players go in order, with each player ``i`` writing on the board the
coordinates ``j`` where :math:`X_i^j = 0`, unless they already appear on
the board.  A player that has no new zero coordinates to contribute writes
a single bit to indicate this.  After all players have taken their turn,
if there is some coordinate that does not appear on the board, then this
coordinate is in the intersection; otherwise the intersection is empty."

Communication: each of the at-most-``n`` distinct zero coordinates is
written once at :math:`\\lceil \\log_2 n \\rceil` bits, plus per-player
framing, for :math:`O(n \\log n + k)` total — the baseline the Section 5
protocol improves to :math:`O(n \\log k + k)`.

Message format (self-delimiting given the board):

* ``0`` — "pass", the player has no new zero coordinates;
* ``1`` + Elias-gamma(count) + ``count`` fixed-width
  (:math:`\\lceil \\log_2 n \\rceil`-bit) coordinate indices, written in
  increasing order.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import repeat
from typing import Any, List, Optional, Sequence, Tuple

from ..coding.bitops import bits_of
from ..coding.bitio import BitReader
from ..coding.varint import decode_elias_gamma, encode_elias_gamma
from ..information.distribution import DiscreteDistribution
from ..core.model import Message, Protocol, ProtocolViolation, Transcript

__all__ = [
    "NaiveDisjointnessProtocol",
    "encode_index_list",
    "decode_index_list",
]


#: Up to this width every index's digits come from one table per width
#: (4,096 strings at most), about five times faster than ``format``.
_TABLE_WIDTH = 12


@lru_cache(maxsize=_TABLE_WIDTH + 1)
def _digits(width: int) -> Tuple[str, ...]:
    """The ``width``-bit binary string of every value below
    ``2^width``, indexed by value."""
    if not width:
        return ("",)
    spec = f"0{width}b"
    return tuple(format(value, spec) for value in range(1 << width))


def encode_index_list(indices: Sequence[int], width: int) -> str:
    """The naive turn over ``indices`` (increasing, each below
    ``2^width``): ``0`` when there are none, else ``1`` +
    Elias-gamma(count) + each index at ``width`` bits."""
    if not indices:
        return "0"
    if width <= _TABLE_WIDTH:
        body = "".join(map(_digits(width).__getitem__, indices))
    else:
        body = "".join(map(format, indices, repeat(f"0{width}b")))
    return "1" + encode_elias_gamma(len(indices)) + body


def decode_index_list(
    bits: str, width: int, bound: int, malformed: str
) -> List[int]:
    """Parse a turn written by :func:`encode_index_list`; every index
    must lie below ``bound``.  Errors are those of reading the message
    index by index with a :class:`~repro.coding.bitio.BitReader`: a bad
    index (``ProtocolViolation`` with text ``malformed`` and the
    message) is reported before a truncated list (``EOFError``), and
    that before trailing bits (``ValueError``)."""
    reader = BitReader(bits)
    if not reader.read_flag():
        reader.expect_exhausted()
        return []
    count = decode_elias_gamma(reader)
    start = reader.position
    if width:
        body = bits[start : start + count * width]
        indices = [
            int(body[i : i + width], 2)
            for i in range(0, len(body) - width + 1, width)
        ]
    else:
        # Zero-width indices are all 0: a second one is already out of
        # order.
        body = ""
        indices = [0] * min(count, 2)
    # Checked in the order they were written: a bad index is reported
    # before a truncated list.
    if indices and (
        indices[-1] >= bound
        or not all(map(operator.lt, indices, indices[1:]))
    ):
        raise ProtocolViolation(f"{malformed} {bits!r}")
    if len(indices) < count:
        remaining = len(bits) - start - len(indices) * width
        raise EOFError(f"requested {width} bits but only {remaining} remain")
    reader.read_bits(len(body))
    reader.expect_exhausted()
    return indices


class NaiveDisjointnessProtocol(Protocol):
    """Single-cycle protocol: every player dumps its new zeros once."""

    def __init__(self, n: int, k: int) -> None:
        super().__init__(k)
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self._n = n
        self._index_width = max((n - 1).bit_length(), 1)

    @property
    def universe_size(self) -> int:
        return self._n

    @property
    def max_messages(self) -> int:
        """``k``: one cycle, each player speaks once."""
        return self._num_players

    # State: (players spoken, covered-coordinates bitmask).
    def initial_state(self) -> Any:
        return (0, 0)

    def advance_state(self, state: Any, message: Message) -> Any:
        count, covered = state
        covered |= self._decode_coordinates(message.bits)
        return (count + 1, covered)

    def _decode_coordinates(self, bits: str) -> int:
        """Parse a turn message into the bitmask of coordinates it wrote."""
        mask = 0
        for coordinate in decode_index_list(
            bits, self._index_width, self._n,
            "malformed coordinate list in message",
        ):
            mask |= 1 << coordinate
        return mask

    def next_speaker(self, state: Any, board: Transcript) -> Optional[int]:
        count, _covered = state
        return count if count < self.num_players else None

    def message_distribution(
        self, state: Any, player: int, player_input: Any, board: Transcript
    ) -> DiscreteDistribution:
        _count, covered = state
        mask = int(player_input)
        if not 0 <= mask < (1 << self._n):
            raise ValueError(
                f"input {player_input!r} is not an {self._n}-bit mask"
            )
        full = (1 << self._n) - 1
        new_zeros = (~mask) & full & ~covered
        return DiscreteDistribution.point_mass(
            encode_index_list(bits_of(new_zeros), self._index_width)
        )

    def output(self, state: Any, board: Transcript) -> int:
        _count, covered = state
        return int(covered == (1 << self._n) - 1)


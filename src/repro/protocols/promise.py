"""Promise (unique-intersection) disjointness (refs [2, 17]).

The paper notes that "a promise version of set disjointness has received
significant attention in the broadcast model" due to its streaming
connections: inputs are promised to be *pairwise* disjoint except for at
most one element common to **all** players.  Under the promise the
problem gets strictly easier than the general :math:`\\Theta(n \\log k)`:

* the sets partition (most of) the universe, so the *smallest* set has at
  most :math:`n/k + 1` elements (pigeonhole);
* the protocol here first has every player announce its set size
  (:math:`\\lceil \\log_2(n+1) \\rceil` bits each), then the smallest-set
  holder publishes its whole set (combinadic,
  :math:`\\approx s \\log_2(n/s)` bits), and finally each other player
  writes one membership bit per candidate;
* the unique common element, if any, must lie in the smallest set, so
  the output is exact *under the promise*.

Cost: :math:`O(k \\log n + (n/k)\\log k + n)` — the general bound's
:math:`n \\log k` term drops to :math:`n`, the "promise is easier"
phenomenon that makes the streaming-motivated variant a different
problem from the one the paper's tight bound addresses.  Experiment E15
measures the separation.

On promise-violating inputs the protocol still halts with a well-defined
(possibly wrong) answer, as promise problems allow.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..coding.bitops import bits_of, popcount
from ..coding.bitio import BitReader, BitWriter
from ..coding.combinatorial import (
    subset_code_width,
    subset_rank,
    subset_unrank,
)
from ..information.distribution import DiscreteDistribution
from ..core.model import Message, Protocol, ProtocolViolation, Transcript

__all__ = ["PromiseUniqueIntersectionProtocol"]


class PromiseUniqueIntersectionProtocol(Protocol):
    """Decide disjointness (and find the witness) under the promise."""

    def __init__(self, n: int, k: int) -> None:
        super().__init__(k)
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self._n = n
        self._size_width = (n).bit_length()

    @property
    def universe_size(self) -> int:
        return self._n

    @property
    def max_messages(self) -> int:
        """``2k``: ``k`` sizes, the holder's set and ``k - 1`` replies."""
        return 2 * self._num_players

    # Phases (all derivable from the board):
    #   0 .. k-1        : size announcements
    #   k               : smallest-set holder publishes its set
    #   k+1 .. 2k-1     : membership bits from the other players, in
    #                     increasing player order (skipping the holder)
    #
    # State: (messages, sizes tuple, candidates tuple or None,
    #         running candidate-survival mask)
    def initial_state(self) -> Any:
        return (0, (), None, None)

    def _holder(self, sizes: Tuple[int, ...]) -> int:
        """The smallest-set player (ties to the lowest index)."""
        return min(range(len(sizes)), key=lambda i: (sizes[i], i))

    def _responders(self, sizes: Tuple[int, ...]) -> List[int]:
        holder = self._holder(sizes)
        return [i for i in range(self.num_players) if i != holder]

    def advance_state(self, state: Any, message: Message) -> Any:
        count, sizes, candidates, survivors = state
        k = self.num_players
        if count < k:
            reader = BitReader(message.bits)
            size = reader.read_uint(self._size_width)
            reader.expect_exhausted()
            if size > self._n:
                raise ProtocolViolation(f"impossible set size {size}")
            return (count + 1, sizes + (size,), candidates, survivors)
        if count == k:
            holder_size = sizes[self._holder(sizes)]
            candidates = tuple(self._decode_set(message.bits, holder_size))
            return (count + 1, sizes, candidates,
                    (1 << len(candidates)) - 1)
        reader = BitReader(message.bits)
        mask = 0
        for index in range(len(candidates)):
            if reader.read_flag():
                mask |= 1 << index
        reader.expect_exhausted()
        return (count + 1, sizes, candidates, survivors & mask)

    def _decode_set(self, bits: str, size: int) -> List[int]:
        reader = BitReader(bits)
        if not reader.read_flag():  # constant framing bit (see encoder)
            raise ProtocolViolation(f"malformed set publication {bits!r}")
        width = subset_code_width(self._n, size)
        rank = reader.read_uint(width)
        reader.expect_exhausted()
        return subset_unrank(rank, self._n, size)

    def next_speaker(self, state: Any, board: Transcript) -> Optional[int]:
        count, sizes, candidates, _survivors = state
        k = self.num_players
        if count < k:
            return count
        if count == k:
            holder = self._holder(sizes)
            if sizes[holder] == 0:
                return None  # empty smallest set: trivially disjoint
            return holder
        if candidates is not None and count < 2 * k:
            responders = self._responders(sizes)
            return responders[count - (k + 1)]
        return None

    def message_distribution(
        self, state: Any, player: int, player_input: Any, board: Transcript
    ) -> DiscreteDistribution:
        count, sizes, candidates, _survivors = state
        mask = int(player_input)
        if not 0 <= mask < (1 << self._n):
            raise ValueError(
                f"input {player_input!r} is not an {self._n}-bit mask"
            )
        k = self.num_players
        writer = BitWriter()
        if count < k:
            writer.write_uint(popcount(mask), self._size_width)
        elif count == k:
            elements = bits_of(mask)
            # A constant framing bit keeps the message nonempty even when
            # C(n, |set|) = 1 (e.g. the set is the whole universe).
            writer.write_flag(True)
            width = subset_code_width(self._n, len(elements))
            writer.write_uint(subset_rank(elements, self._n), width)
        else:
            for element in candidates:
                writer.write_flag(bool(mask >> element & 1))
        return DiscreteDistribution.point_mass(writer.getvalue())

    def output(self, state: Any, board: Transcript) -> int:
        """1 iff disjoint (under the promise); the surviving candidate,
        when any, is recoverable via :meth:`witness`."""
        _count, sizes, candidates, survivors = state
        if candidates is None:
            return 1  # smallest set empty: disjoint
        return int(survivors == 0)

    def witness(self, state: Any) -> Optional[int]:
        """The common element if the protocol found one, else ``None``."""
        _count, _sizes, candidates, survivors = state
        if candidates is None or survivors == 0:
            return None
        return candidates[bits_of(survivors)[0]]

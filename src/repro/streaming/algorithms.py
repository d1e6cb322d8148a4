"""Concrete streaming algorithms for the disjointness reduction.

* :class:`CappedFrequencyCounter` — exact per-item frequencies capped at
  ``cap``: decides whether some item reaches frequency ``cap``
  (equivalently, whether ``cap`` sets share an element).  Space
  ``n · ⌈log2(cap+1)⌉`` bits — the algorithm whose space the paper's
  disjointness bound constrains from below.
* :class:`DistinctElementsBitmap` — exact ``F_0`` via an ``n``-bit
  bitmap; also decides full coverage (the union protocol's streaming
  twin).
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..coding.bitio import BitReader, BitWriter, Bits
from .model import StreamingAlgorithm

__all__ = [
    "CappedFrequencyCounter",
    "DistinctElementsBitmap",
]


class CappedFrequencyCounter(StreamingAlgorithm):
    """Exact frequencies, saturating at ``cap``.

    ``output`` is 1 iff some item's frequency reached ``cap`` — with one
    pass per player over its set, frequency ``cap = k`` means the item is
    in every player's set, i.e. the instance is non-disjoint.  State: a
    tuple of ``n`` counters in ``[0, cap]``, serialized at fixed width
    ``⌈log2(cap+1)⌉`` bits each.
    """

    def __init__(self, universe_size: int, cap: int) -> None:
        super().__init__(universe_size)
        if cap < 1:
            raise ValueError(f"need cap >= 1, got {cap}")
        self._cap = cap
        self._width = max((cap).bit_length(), 1)

    @property
    def cap(self) -> int:
        return self._cap

    def initial_state(self) -> Tuple[int, ...]:
        return tuple([0] * self.universe_size)

    def update(self, state: Tuple[int, ...], item: int) -> Tuple[int, ...]:
        if state[item] >= self._cap:
            return state
        counters = list(state)
        counters[item] += 1
        return tuple(counters)

    def fold(
        self, state: Tuple[int, ...], items: Iterable[int]
    ) -> Tuple[int, ...]:
        """``update`` folded over ``items`` in one pass over a list of
        counters (``update`` copies the whole ``n``-tuple per item)."""
        cap = self._cap
        counters = list(state)
        for item in items:
            if counters[item] < cap:
                counters[item] += 1
        return tuple(counters)

    def output(self, state: Tuple[int, ...]) -> int:
        return int(any(c >= self._cap for c in state))

    def max_frequency(self, state: Tuple[int, ...]) -> int:
        """The (capped) maximum frequency — the F_inf view."""
        return max(state)

    # One range check and one join, one read and slices; bad input
    # falls back to the per-counter calls, which raise as before.
    def encode_state(self, state: Tuple[int, ...]) -> Bits:
        width, code = self._width, f"0{self._width}b"
        if state and not 0 <= min(state) <= max(state) < 1 << width:
            for counter in state:
                BitWriter().write_uint(counter, width)
        return "".join([format(counter, code) for counter in state])

    def decode_state(self, reader: BitReader) -> Tuple[int, ...]:
        width, size = self._width, self._width * self.universe_size
        while reader.remaining < size:
            reader.read_uint(width)
        bits = reader.read_bits(size)
        return tuple([int(bits[i:i + width], 2) for i in range(0, size, width)])


class DistinctElementsBitmap(StreamingAlgorithm):
    """Exact number of distinct elements via an ``n``-bit bitmap."""

    def initial_state(self) -> int:
        return 0

    def update(self, state: int, item: int) -> int:
        return state | (1 << item)

    def output(self, state: int) -> int:
        return bin(state).count("1")

    def covers_universe(self, state: int) -> bool:
        """Whether every element of ``[n]`` appeared."""
        return state == (1 << self.universe_size) - 1

    def encode_state(self, state: int) -> Bits:
        return format(state, f"0{self.universe_size}b")

    def decode_state(self, reader: BitReader) -> int:
        return int(reader.read_bits(self.universe_size), 2)

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

    def encode_state(self, state: Tuple[int, ...]) -> Bits:
        writer = BitWriter()
        for counter in state:
            writer.write_uint(counter, self._width)
        return writer.getvalue()

    def decode_state(self, reader: BitReader) -> Tuple[int, ...]:
        return tuple(
            reader.read_uint(self._width) for _ in range(self.universe_size)
        )


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

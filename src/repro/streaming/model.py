"""A one-pass streaming model with exact space accounting.

Why this lives in a communication-complexity reproduction: the paper's
introduction motivates multi-party disjointness through its streaming
applications [1, 2, 17] — a small-space one-pass algorithm for a
frequency problem yields a low-communication blackboard protocol for
disjointness (each player streams its elements and posts the algorithm's
memory state), so the paper's :math:`\\Omega(n \\log k + k)` bound
translates into a space lower bound.  :mod:`repro.streaming.reduction`
makes that translation executable.

The model: an algorithm processes a stream of items from ``[n]`` one at a
time, holding a state it must be able to *serialize to bits* — the
serialized size is the space charged (the quantity the reduction
transports onto the blackboard).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Iterable

from ..coding.bitio import BitReader, Bits

__all__ = ["StreamingAlgorithm", "StreamRun", "run_stream"]


class StreamingAlgorithm(abc.ABC):
    """A one-pass, serializable-state streaming algorithm over ``[n]``.

    State objects must be immutable (or never mutated): ``update``
    returns the next state.  ``encode_state`` / ``decode_state`` must be
    exact inverses; the reduction posts encoded states on the blackboard
    and the model-discipline tests require the encoding to be
    self-delimiting (fixed width per algorithm satisfies this trivially).
    """

    def __init__(self, universe_size: int) -> None:
        if universe_size < 1:
            raise ValueError(f"need a universe of size >= 1, got {universe_size}")
        self._n = universe_size

    @property
    def universe_size(self) -> int:
        return self._n

    @abc.abstractmethod
    def initial_state(self) -> Any:
        """The state before any item is seen."""

    @abc.abstractmethod
    def update(self, state: Any, item: int) -> Any:
        """The state after processing ``item`` (pure)."""

    def fold(self, state: Any, items: Iterable[int]) -> Any:
        """The state after processing ``items`` in order: ``update``
        folded over them.  Subclasses may fold in one pass, with the
        same result."""
        for item in items:
            state = self.update(state, item)
        return state

    @abc.abstractmethod
    def output(self, state: Any) -> Any:
        """The answer computed from the final state (free)."""

    @abc.abstractmethod
    def encode_state(self, state: Any) -> Bits:
        """Serialize the state; ``len`` of the result is the space used."""

    @abc.abstractmethod
    def decode_state(self, reader: BitReader) -> Any:
        """Inverse of :meth:`encode_state`."""

    # ------------------------------------------------------------------
    def validate_item(self, item: int) -> None:
        if not 0 <= item < self._n:
            raise ValueError(
                f"item {item} outside the universe [0, {self._n})"
            )


@dataclass(frozen=True)
class StreamRun:
    """The result of one streaming pass."""

    output: Any
    final_state: Any
    items_processed: int
    max_state_bits: int  # the algorithm's space usage on this stream


def run_stream(
    algorithm: StreamingAlgorithm, stream: Iterable[int]
) -> StreamRun:
    """Process ``stream`` and account the maximum serialized state size."""
    state = algorithm.initial_state()
    max_bits = len(algorithm.encode_state(state))
    count = 0
    for item in stream:
        algorithm.validate_item(item)
        state = algorithm.update(state, item)
        max_bits = max(max_bits, len(algorithm.encode_state(state)))
        count += 1
    return StreamRun(
        output=algorithm.output(state),
        final_state=state,
        items_processed=count,
        max_state_bits=max_bits,
    )

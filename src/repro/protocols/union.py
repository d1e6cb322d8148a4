"""Pointwise-OR / set union in the blackboard model (extension).

The paper's introduction contrasts its disjointness bound with the
pointwise-Boolean functions of Phillips–Verbin–Zhang [24], where
symmetrization proves an :math:`\\Omega(n \\log k)` bound on
*pointwise-OR* — the function whose output is, per coordinate, the OR of
the ``k`` players' bits, i.e. the union :math:`\\bigcup_i X_i`.

This module adapts the Section 5 batching machinery to *compute the
whole union*, not just decide emptiness of the intersection:

* **Batch phase** (:math:`z_i \\ge k^2`, with :math:`Z_i` the coordinates
  not yet on the board): a player holding at least
  :math:`m = \\lceil z_i/k \\rceil` not-yet-announced *elements* writes a
  batch of exactly ``m`` of them as an ``m``-subset of :math:`Z_i`
  (amortized :math:`\\log(ek)` bits per element); otherwise it passes.
* When a whole cycle passes, the protocol cannot stop (unlike
  disjointness, the remaining union elements must still be enumerated) —
  it drops to the **endgame**, where each player writes *all* its new
  elements as a variable-size subset of :math:`Z_i`
  (:math:`\\lceil \\log_2 \\binom{z_i}{c} \\rceil \\le
  c \\log_2(e z_i / c)` bits for ``c`` elements).
* The protocol halts after an endgame cycle, or earlier if the board
  covers the universe; the output is the set of announced coordinates.

Communication: the batch phase is charged exactly as in Theorem 2
(:math:`O(|{\\cup_i X_i}| \\log k + k)`); the endgame batches cost
:math:`c \\log(e z/c)` which is :math:`O(c \\log k)` for
:math:`c \\approx z/k` and at most :math:`O(\\log n)` per isolated
element — total :math:`O(n \\log k + k \\log n)`, matching the [24]
lower bound up to the additive :math:`k \\log n` term.

Disjointness reduces to the union for free (complement the inputs:
the union of the complements is the complement of the intersection),
which the tests exercise.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from ..coding.bitops import popcount, zone_mask, zone_positions
from ..coding.bitio import BitReader, BitWriter
from ..coding.combinatorial import (
    subset_code_width,
    subset_rank,
    subset_unrank,
)
from ..coding.varint import decode_elias_gamma, encode_elias_gamma
from ..information.distribution import DiscreteDistribution
from ..core.model import Message, Protocol, ProtocolViolation, Transcript
from .batch import decode_batch_turn, encode_batch_turn

__all__ = ["UnionProtocol"]


class _BoardState(NamedTuple):
    covered: int            # elements announced so far (bitmask)
    zone: int               # Z_i: the coordinates absent at cycle start
    turn: int               # next player within the cycle
    wrote: bool             # whether anyone wrote this cycle
    endgame: bool           # variable-size-batch mode
    finished: bool          # halted


class UnionProtocol(Protocol):
    """Compute :math:`\\bigcup_i X_i` (pointwise-OR) on the blackboard."""

    def __init__(self, n: int, k: int) -> None:
        super().__init__(k)
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self._n = n
        self._full = (1 << n) - 1

    @property
    def universe_size(self) -> int:
        return self._n

    @property
    def max_messages(self) -> int:
        """``k (n + 2)``, Theorem 2's cycle argument.

        Players ``0..k-1`` speak in order, so a cycle is at most ``k``
        messages.  Batch cycles that stay in the batch phase each add at
        least one coordinate (at most ``n`` of them); an all-pass batch
        cycle drops to the endgame, and the endgame cycle ends the run:
        at most ``n + 2`` cycles.
        """
        return self._num_players * (self._n + 2)

    # ------------------------------------------------------------------
    def initial_state(self) -> _BoardState:
        return _BoardState(
            covered=0,
            zone=self._full,
            turn=0,
            wrote=False,
            endgame=self._n < self.num_players**2,
            finished=False,
        )

    def advance_state(self, state: _BoardState, message: Message) -> _BoardState:
        k = self._num_players
        covered, zone, turn, wrote, endgame, finished = state
        if endgame:
            written = self._decode_endgame_turn(message.bits, zone)
        else:
            written = decode_batch_turn(message.bits, zone, k)
        covered |= written
        turn += 1
        wrote = wrote or written != 0
        if covered == self._full:
            return _BoardState(covered, zone, turn, wrote, endgame, True)
        if turn < k:
            return _BoardState(covered, zone, turn, wrote, endgame, finished)
        # Cycle boundary.
        if endgame:
            # After an endgame cycle every element of the union is on the
            # board (each player wrote all its new elements).
            return _BoardState(covered, zone, turn, wrote, endgame, True)
        zone = self._full & ~covered
        # An all-pass batch cycle (or a zone shrunk below k^2) drops to
        # the endgame to enumerate the remaining union elements.
        return _BoardState(
            covered, zone, 0, False, not wrote or popcount(zone) < k * k,
            False,
        )

    # ------------------------------------------------------------------
    def next_speaker(
        self, state: _BoardState, board: Transcript
    ) -> Optional[int]:
        if state.finished:
            return None
        return state.turn

    def message_distribution(
        self,
        state: _BoardState,
        player: int,
        player_input: Any,
        board: Transcript,
    ) -> DiscreteDistribution:
        mask = int(player_input)
        if not 0 <= mask <= self._full:
            raise ValueError(
                f"input {player_input!r} is not an {self._n}-bit mask"
            )
        new_elements = mask & ~state.covered
        if state.endgame:
            bits = self._encode_endgame_turn(new_elements, state.zone)
        else:
            bits = encode_batch_turn(
                new_elements, state.zone, self._num_players
            )
        return DiscreteDistribution.point_mass(bits)

    def output(self, state: _BoardState, board: Transcript) -> int:
        if not state.finished:
            raise ProtocolViolation("output requested before halting")
        return state.covered

    # ------------------------------------------------------------------
    # Endgame codec: a variable-size subset of Z_i.  The batch turn is
    # repro.protocols.batch, shared with the optimal protocol.
    # ------------------------------------------------------------------
    def _encode_endgame_turn(self, new_elements: int, zone: int) -> str:
        if not new_elements:
            return "0"
        positions = zone_positions(new_elements, zone)
        z = popcount(zone)
        writer = BitWriter()
        writer.write_flag(True)
        writer.write_bits(encode_elias_gamma(len(positions)))
        writer.write_uint(
            subset_rank(positions, z), subset_code_width(z, len(positions))
        )
        return writer.getvalue()

    def _decode_endgame_turn(self, bits: str, zone: int) -> int:
        z = popcount(zone)
        reader = BitReader(bits)
        if not reader.read_flag():
            reader.expect_exhausted()
            return 0
        count = decode_elias_gamma(reader)
        if count > z:
            raise ProtocolViolation(f"malformed endgame batch {bits!r}")
        rank = reader.read_uint(subset_code_width(z, count))
        positions = subset_unrank(rank, z, count)
        reader.expect_exhausted()
        return zone_mask(positions, zone)

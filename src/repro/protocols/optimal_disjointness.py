"""The optimal deterministic disjointness protocol (Section 5, Theorem 2).

Communication :math:`O(n \\log k + k)` — matching the paper's
:math:`\\Omega(n \\log k + k)` lower bound, so optimal even against
randomized protocols.

Protocol recap (from the paper):

* The protocol runs in *cycles*; within a cycle, players ``0..k-1`` speak
  in order (a prefix of them, if the protocol halts mid-cycle).  Let
  :math:`Z_i` be the coordinates absent from the board at the start of
  cycle ``i`` and :math:`z_i = |Z_i|`.
* **Batch phase** (:math:`z_i \\ge k^2`): on its turn, a player holding at
  least :math:`m = \\lceil z_i / k \\rceil` zeros not yet on the board
  ("new zeros") writes exactly ``m`` of them, *encoded as an m-subset of*
  :math:`Z_i` — :math:`\\lceil \\log_2 \\binom{z_i}{m} \\rceil \\le
  (z_i/k) \\log_2(ek) + 1` bits, i.e. amortized :math:`\\log(ek)` bits per
  coordinate.  Otherwise it writes a single "pass" bit.
* **Endgame** (:math:`z_i < k^2`): each player writes *all* its new zeros
  in the naive encoding as elements of :math:`Z_i` —
  :math:`O(\\log k)` bits per coordinate since :math:`|Z_i| < k^2`.
* Halting: output "disjoint" (1) as soon as every coordinate appears on
  the board; output "non-disjoint" (0) if a complete cycle passes in
  which every player passed, or if the endgame cycle ends with the board
  incomplete.

Correctness (pigeonhole, as in the paper): if the sets are disjoint, each
coordinate of :math:`Z_i` is a zero of some player, so *some* player holds
at least :math:`z_i / k` — hence at least :math:`m` — zeros of
:math:`Z_i`; if an entire cycle passes with no writes, some coordinate is
a 1 of every player and the sets intersect.  The protocol is
deterministic and never errs; the test suite verifies it exhaustively on
small instances and against random large ones.

Message formats (self-delimiting given the board):

* batch turn:    ``0`` (pass)  |  ``1`` + rank of the m-subset of
  :math:`Z_i` at fixed width :math:`\\lceil\\log_2\\binom{z_i}{m}\\rceil`;
* endgame turn:  ``0`` (pass)  |  ``1`` + Elias-gamma(count) + ``count``
  indices into :math:`Z_i`, strictly increasing, at fixed width
  :math:`\\lceil \\log_2 z_i \\rceil`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

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

__all__ = ["OptimalDisjointnessProtocol"]


@dataclass(frozen=True)
class _BoardState:
    """Pure fold of the board contents (never sees any input)."""

    covered: int          # bitmask of coordinates currently on the board
    cycle_base: int       # `covered` as of the start of the current cycle
    turn: int             # next player to speak within the cycle
    wrote: bool           # whether anyone wrote coordinates this cycle
    endgame: bool         # True iff z(cycle start) < k^2
    verdict: Optional[int]  # 0 once "non-disjoint" is decided, else None


class OptimalDisjointnessProtocol(Protocol):
    """The Section 5 protocol: :math:`O(n \\log k + k)` bits, zero error."""

    def __init__(self, n: int, k: int) -> None:
        super().__init__(k)
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self._n = n
        self._full = (1 << n) - 1

    @property
    def universe_size(self) -> int:
        return self._n

    # ------------------------------------------------------------------
    # Board-state folding
    # ------------------------------------------------------------------
    def initial_state(self) -> _BoardState:
        return _BoardState(
            covered=0,
            cycle_base=0,
            turn=0,
            wrote=False,
            endgame=self._n < self.num_players**2,
            verdict=None,
        )

    def advance_state(self, state: _BoardState, message: Message) -> _BoardState:
        written = self._decode_turn(state, message.bits)
        covered = state.covered | written
        turn = state.turn + 1
        wrote = state.wrote or written != 0
        if covered == self._full:
            # Board complete: the protocol will halt with output 1.
            return replace(
                state, covered=covered, turn=turn, wrote=wrote
            )
        if turn < self.num_players:
            return replace(state, covered=covered, turn=turn, wrote=wrote)
        # Cycle boundary with an incomplete board.
        if state.endgame or not wrote:
            return replace(
                state, covered=covered, turn=turn, wrote=wrote, verdict=0
            )
        z = self._n - popcount(covered)
        return _BoardState(
            covered=covered,
            cycle_base=covered,
            turn=0,
            wrote=False,
            endgame=z < self.num_players**2,
            verdict=None,
        )

    # ------------------------------------------------------------------
    # Protocol logic
    # ------------------------------------------------------------------
    def next_speaker(
        self, state: _BoardState, board: Transcript
    ) -> Optional[int]:
        if state.verdict is not None or state.covered == self._full:
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
        new_zeros = (~mask) & self._full & ~state.covered
        zone = self._zone(state)
        if state.endgame:
            bits = self._encode_endgame_turn(new_zeros, zone)
        else:
            bits = self._encode_batch_turn(new_zeros, zone)
        return DiscreteDistribution.point_mass(bits)

    def output(self, state: _BoardState, board: Transcript) -> int:
        if state.covered == self._full:
            return 1
        if state.verdict is not None:
            return state.verdict
        raise ProtocolViolation("output requested before the protocol halted")

    # ------------------------------------------------------------------
    # Encoding helpers.  ``zone`` is the mask of Z_i; coordinates are
    # written as positions among its set bits (coding.bitops).
    # ------------------------------------------------------------------
    def _zone(self, state: _BoardState) -> int:
        """The mask of :math:`Z_i`, the coordinates absent at cycle start."""
        return (~state.cycle_base) & self._full

    def _batch_size(self, z: int) -> int:
        """The mandated batch size :math:`m = \\lceil z / k \\rceil`."""
        return -(-z // self.num_players)

    def _encode_batch_turn(self, new_zeros: int, zone: int) -> str:
        z = popcount(zone)
        m = self._batch_size(z)
        # m == 0 only on an empty zone, and that turn is a pass.
        if not new_zeros or popcount(new_zeros) < m:
            return "0"
        # The m smallest new zeros (new_zeros is a subset of Z_i).
        chosen = zone_positions(new_zeros, zone, m)
        writer = BitWriter()
        writer.write_flag(True)
        width = subset_code_width(z, m)
        writer.write_uint(subset_rank(chosen, z), width)
        return writer.getvalue()

    def _encode_endgame_turn(self, new_zeros: int, zone: int) -> str:
        if not new_zeros:
            return "0"
        positions = zone_positions(new_zeros, zone)
        writer = BitWriter()
        writer.write_flag(True)
        writer.write_bits(encode_elias_gamma(len(positions)))
        width = _index_width(popcount(zone))
        for position in positions:
            writer.write_uint(position, width)
        return writer.getvalue()

    def _decode_turn(self, state: _BoardState, bits: str) -> int:
        """Parse a turn message into the bitmask of coordinates it wrote."""
        zone = self._zone(state)
        z = popcount(zone)
        reader = BitReader(bits)
        if not reader.read_flag():
            reader.expect_exhausted()
            return 0
        if state.endgame:
            count = decode_elias_gamma(reader)
            width = _index_width(z)
            positions = []
            previous = -1
            for _ in range(count):
                position = reader.read_uint(width)
                if position <= previous or position >= z:
                    raise ProtocolViolation(
                        f"malformed endgame message {bits!r}"
                    )
                positions.append(position)
                previous = position
        else:
            m = self._batch_size(z)
            width = subset_code_width(z, m)
            positions = subset_unrank(reader.read_uint(width), z, m)
        reader.expect_exhausted()
        return zone_mask(positions, zone)


def _index_width(z: int) -> int:
    """Bits per index into a zone of size ``z`` (0 when z == 1)."""
    if z < 1:
        raise ValueError("zone is empty")
    return (z - 1).bit_length()

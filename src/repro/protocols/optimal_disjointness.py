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

from typing import Any, NamedTuple, Optional

from ..coding.bitops import popcount, zone_mask, zone_positions
from ..information.distribution import DiscreteDistribution
from ..core.model import Message, Protocol, ProtocolViolation, Transcript
from .batch import decode_batch_turn, encode_batch_turn
from .naive_disjointness import decode_index_list, encode_index_list

__all__ = ["OptimalDisjointnessProtocol"]


class _BoardState(NamedTuple):
    """Pure fold of the board contents (never sees any input): an
    immutable value, hashed and compared by its fields."""

    covered: int          # bitmask of coordinates currently on the board
    zone: int             # Z_i: the coordinates absent at cycle start
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

    @property
    def max_messages(self) -> int:
        """``k (n + 1)``, Theorem 2's cycle argument.

        Players ``0..k-1`` speak in order, so a cycle is at most ``k``
        messages.  A cycle in which nobody writes a new coordinate ends
        the run with verdict 0, and so does the endgame cycle.  Every
        cycle that lets the run go on therefore adds at least one of
        the ``n`` coordinates to the board: at most ``n`` such cycles
        plus the last one.
        """
        return self._num_players * (self._n + 1)

    # ------------------------------------------------------------------
    # Board-state folding
    # ------------------------------------------------------------------
    def initial_state(self) -> _BoardState:
        return _BoardState(
            covered=0,
            zone=self._full,
            turn=0,
            wrote=False,
            endgame=self._n < self.num_players**2,
            verdict=None,
        )

    def advance_state(self, state: _BoardState, message: Message) -> _BoardState:
        k = self._num_players
        covered, zone, turn, wrote, endgame, verdict = state
        if endgame:
            written = self._decode_endgame_turn(message.bits, zone)
        else:
            written = decode_batch_turn(message.bits, zone, k)
        covered |= written
        turn += 1
        wrote = wrote or written != 0
        # Mid-cycle, or a complete board (the run halts with output 1).
        if covered == self._full or turn < k:
            return _BoardState(covered, zone, turn, wrote, endgame, verdict)
        # Cycle boundary with an incomplete board.
        if endgame or not wrote:
            return _BoardState(covered, zone, turn, wrote, endgame, 0)
        zone = self._full & ~covered
        return _BoardState(
            covered, zone, 0, False, popcount(zone) < k * k, None
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
        new_zeros = self._full & ~(mask | state.covered)
        if state.endgame:
            bits = self._encode_endgame_turn(new_zeros, state.zone)
        else:
            bits = encode_batch_turn(new_zeros, state.zone, self._num_players)
        return DiscreteDistribution.point_mass(bits)

    def output(self, state: _BoardState, board: Transcript) -> int:
        if state.covered == self._full:
            return 1
        if state.verdict is not None:
            return state.verdict
        raise ProtocolViolation("output requested before the protocol halted")

    # ------------------------------------------------------------------
    # Endgame codec: the naive turn over positions in Z_i (coordinates
    # are written as positions among the set bits of ``zone``,
    # coding.bitops).  The batch turn is repro.protocols.batch, shared
    # with the union.
    # ------------------------------------------------------------------
    def _encode_endgame_turn(self, new_zeros: int, zone: int) -> str:
        if not new_zeros:
            return "0"
        positions = zone_positions(new_zeros, zone)
        return encode_index_list(positions, _index_width(popcount(zone)))

    def _decode_endgame_turn(self, bits: str, zone: int) -> int:
        """Parse an endgame message into the bitmask of coordinates it
        wrote."""
        z = popcount(zone)
        positions = decode_index_list(
            bits, _index_width(z), z, "malformed endgame message"
        )
        return zone_mask(positions, zone)


def _index_width(z: int) -> int:
    """Bits per index into a zone of size ``z`` (0 when z == 1)."""
    if z < 1:
        raise ValueError("zone is empty")
    return (z - 1).bit_length()

"""The broadcast (shared blackboard) model of communication.

This module defines the execution model of Section 3 of the paper:

* ``k`` players, each holding a private input :math:`X_i`;
* a shared blackboard all players read for free;
* at each point, the *board contents alone* determine whose turn it is to
  speak next;
* the speaking player writes a message that may depend on its input, its
  private randomness, and the board;
* eventually the protocol halts and an output is computed from the board
  (outputs are not charged).

A protocol is expressed by subclassing :class:`Protocol`.  Because both
the concrete runner (:mod:`repro.core.runner`) and the exact
protocol-tree analyzer (:mod:`repro.core.tree`) must replay protocols from
arbitrary intermediate board states, protocol logic is written as *pure
functions* of an immutable board state:

* :meth:`Protocol.initial_state` / :meth:`Protocol.advance_state` fold the
  board contents into a protocol-defined state object (anything immutable;
  ``None`` works for protocols that re-derive everything from the board);
* :meth:`Protocol.next_speaker` maps board state to the next speaker (or
  ``None`` to halt);
* :meth:`Protocol.message_distribution` returns the exact distribution
  over the speaker's next message — private randomness is *implicit* in
  this distribution, which is what makes exact information-cost analysis
  possible;
* :meth:`Protocol.output` maps the final board state to the result.

Messages are bit strings (see :mod:`repro.coding.bitio`) and communication
is charged one unit per bit, exactly as :math:`CC(\\Pi)` is defined in the
paper.

Model discipline enforced/auditable here:

* the next-speaker function sees only the board, never inputs — the type
  signature makes a violation impossible;
* at any board state, the supported messages of the speaking player must
  form a prefix-free set *across all inputs* so that transcripts remain
  self-delimiting; :func:`check_prefix_free` verifies this and the test
  suite applies it to every shipped protocol.

Position in the media hierarchy: the blackboard is the *broadcast*
instance of the pluggable communication media of :mod:`repro.topology`
— a single shared link every node reads and writes, whose scheduler
sees the full board.  This module stays the canonical, optimized
implementation of that instance (every broadcast experiment and the
vectorized kernels run through it); :class:`~repro.topology.protocol.
BroadcastAdapter` lifts any :class:`Protocol` into the generalized
:class:`~repro.topology.protocol.MediumProtocol` interface
bit-identically, and the coordinator / graph media generalize the model
to restricted visibility (per-node *views*).  See docs/topology.md.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..information.distribution import DiscreteDistribution
from ..coding.bitio import Bits

__all__ = [
    "Message",
    "Transcript",
    "Protocol",
    "ProtocolViolation",
    "check_prefix_free",
]


class ProtocolViolation(RuntimeError):
    """Raised when a protocol breaks the rules of the blackboard model."""


@dataclass(frozen=True)
class Message:
    """One message written on the board: who wrote it and the bits written."""

    speaker: int
    bits: Bits

    def __post_init__(self) -> None:
        if self.speaker < 0:
            raise ValueError(f"speaker index must be >= 0, got {self.speaker}")
        if not all(c in "01" for c in self.bits):
            raise ValueError(f"message bits must be a 0/1 string: {self.bits!r}")

    def __len__(self) -> int:
        return len(self.bits)


class Transcript:
    """An immutable, hashable sequence of messages (the board contents).

    Transcripts serve as dictionary keys in the exact analysis (they are
    the support of the transcript random variable :math:`\\Pi`), so they
    are immutable and hash by content.
    """

    __slots__ = ("_messages", "_bits_written", "_hash")

    def __init__(self, messages: Iterable[Message] = ()) -> None:
        self._messages: Tuple[Message, ...] = tuple(messages)
        self._bits_written = sum(len(m) for m in self._messages)
        self._hash: Optional[int] = None

    # -- sequence protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self._messages)

    def __iter__(self) -> Iterator[Message]:
        return iter(self._messages)

    def __getitem__(self, index) -> Message:
        return self._messages[index]

    # -- identity ---------------------------------------------------------
    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Transcript):
            return NotImplemented
        return self._messages == other._messages

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._messages)
        return self._hash

    def __repr__(self) -> str:
        inner = ",".join(f"{m.speaker}:{m.bits}" for m in self._messages)
        return f"Transcript({inner})"

    # -- accessors ----------------------------------------------------------
    @property
    def messages(self) -> Tuple[Message, ...]:
        """The messages written so far, in order."""
        return self._messages

    @property
    def bits_written(self) -> int:
        """Total number of bits on the board — the transcript's cost."""
        return self._bits_written

    def bit_string(self) -> Bits:
        """The raw concatenation of all message bits."""
        return "".join(m.bits for m in self._messages)

    def speakers(self) -> List[int]:
        """The sequence of speakers, in speaking order."""
        return [m.speaker for m in self._messages]

    def extend(self, message: Message) -> "Transcript":
        """A new transcript with ``message`` appended.

        Builds the child directly: the bit count is the parent's plus the
        new message's, so extending costs O(1) bookkeeping rather than a
        re-sum over the whole board (the exact tree walk extends once per
        node).
        """
        child = Transcript.__new__(Transcript)
        child._messages = self._messages + (message,)
        child._bits_written = self._bits_written + len(message.bits)
        child._hash = None
        return child

    def messages_by(self, player: int) -> List[Message]:
        """All messages written by ``player``, in order."""
        return [m for m in self._messages if m.speaker == player]


EMPTY_TRANSCRIPT = Transcript()


class Protocol(abc.ABC):
    """A randomized protocol in the blackboard model.

    Subclasses implement the four hooks below.  All hooks must be pure:
    given equal arguments they return equal values and mutate nothing —
    the exact analyzer replays board states in arbitrary interleavings.

    Attributes
    ----------
    num_players:
        The number of players ``k``.
    """

    def __init__(self, num_players: int) -> None:
        if num_players < 1:
            raise ValueError(f"need at least one player, got {num_players}")
        self._num_players = num_players

    @property
    def num_players(self) -> int:
        return self._num_players

    # ------------------------------------------------------------------
    # Board-state folding.  The default keeps no state; protocols that
    # need efficiency fold the board incrementally.
    # ------------------------------------------------------------------
    def initial_state(self) -> Any:
        """The board state of the empty board."""
        return None

    def advance_state(self, state: Any, message: Message) -> Any:
        """The board state after ``message`` is written.

        Must be a pure function of ``(state, message)``: the new state is
        returned, the old state object is not modified.
        """
        return None

    # ------------------------------------------------------------------
    # Protocol logic.
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def next_speaker(self, state: Any, board: Transcript) -> Optional[int]:
        """The index of the next player to speak, or ``None`` to halt.

        May depend only on the board (via ``state``/``board``), matching
        the model's requirement that "the current contents of the
        blackboard determine whose turn it is to speak next".
        """

    @abc.abstractmethod
    def message_distribution(
        self,
        state: Any,
        player: int,
        player_input: Any,
        board: Transcript,
    ) -> DiscreteDistribution:
        """The exact law of the next message (a distribution over bit
        strings), given the speaker's input and the board.

        Deterministic protocols return point masses; private coins are
        folded into this distribution.
        """

    @abc.abstractmethod
    def output(self, state: Any, board: Transcript) -> Any:
        """The protocol's output, computed from the final board contents.

        Outputs are free (not charged as communication), matching the
        model.
        """

    # ------------------------------------------------------------------
    # Conveniences.
    # ------------------------------------------------------------------
    def validate_inputs(self, inputs: Sequence[Any]) -> None:
        """Raise if ``inputs`` is not one input per player."""
        if len(inputs) != self._num_players:
            raise ProtocolViolation(
                f"protocol has {self._num_players} players but got "
                f"{len(inputs)} inputs"
            )

    def replay_state(self, board: Transcript) -> Any:
        """Fold an existing board into a state object from scratch."""
        state = self.initial_state()
        for message in board:
            state = self.advance_state(state, message)
        return state


def check_prefix_free(messages: Iterable[Bits]) -> None:
    """Raise :class:`ProtocolViolation` unless the given message set is
    prefix-free (and free of duplicates and empty messages).

    The blackboard model requires transcripts to be self-delimiting: an
    observer reading the raw board must be able to tell where one message
    ends.  The test suite applies this check, across the union of all
    inputs' message supports, at every reachable board state of every
    shipped protocol.
    """
    words = sorted(set(messages))
    for word in words:
        if word == "":
            raise ProtocolViolation("empty messages are not allowed")
    for first, second in zip(words, words[1:]):
        if second.startswith(first):
            raise ProtocolViolation(
                f"message set is not prefix-free: {first!r} is a prefix "
                f"of {second!r}"
            )

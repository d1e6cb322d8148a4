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

Media: the blackboard is the *broadcast* instance of a pluggable
communication medium.  Every message travels on a **link** — on the
board the single shared :data:`BOARD_LINK`, which is the default, so a
board protocol never names it — and a :class:`Medium` says who may
write on which link and who reads it.  The runner and the exact
analyzer are one engine for every medium: they call
:meth:`Protocol.next_edge` (``(next_speaker(...), BOARD_LINK)`` for a
board protocol) and enforce adjacency with :meth:`Medium.check_edge`.
:data:`BROADCAST` lives here so the engine reaches it without importing
:mod:`repro.topology`, which adds the coordinator and graph media and
the protocols stated over them.  See docs/topology.md.
"""

from __future__ import annotations

import abc
from collections import namedtuple
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from ..information.distribution import DiscreteDistribution
from ..coding.bitio import Bits, is_bit_string
from ..obs.metrics import REGISTRY

__all__ = [
    "Link",
    "BOARD_LINK",
    "Message",
    "Transcript",
    "Protocol",
    "ProtocolViolation",
    "TopologyViolation",
    "Medium",
    "BroadcastMedium",
    "BROADCAST",
    "DEFAULT_MAX_MESSAGES",
    "check_prefix_free",
]

#: The message bound of a protocol that declares none: every engine
#: stops a run (or a root-to-leaf path of the walk) that would write one
#: more message than this.
DEFAULT_MAX_MESSAGES = 10_000


class ProtocolViolation(RuntimeError):
    """Raised when a protocol breaks the rules of the blackboard model."""


class TopologyViolation(RuntimeError):
    """Raised when a protocol breaks the rules of its medium — writing on
    a link the speaker is not an endpoint of, naming a link the medium
    does not contain, or scheduling a node that does not exist."""


class _BoardLink:
    """The single shared channel of the broadcast medium.

    A singleton sentinel rather than a :class:`Link`: the board is not a
    point-to-point connection between two nodes, every node reads and
    writes it.
    """

    __slots__ = ()
    _instance: Optional["_BoardLink"] = None

    def __new__(cls) -> "_BoardLink":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BOARD_LINK"

    def __reduce__(self):  # pickling preserves the singleton
        return (_BoardLink, ())


#: The one link of the broadcast medium, and every message's default.
BOARD_LINK = _BoardLink()


class Link(namedtuple("Link", ("a", "b"))):
    """An undirected point-to-point link between two distinct nodes.

    Endpoints are normalized to ``a < b`` so ``Link(2, 0) == Link(0, 2)``
    — a link is a set of two endpoints, not an ordered pair.  A
    tuple-backed value (see :class:`Message`): ``Link(0, 2) == (0, 2)``.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "Link":
        if a < 0 or b < 0:
            raise ValueError(f"link endpoints must be >= 0: {a}, {b}")
        if a == b:
            raise ValueError(f"links must join distinct nodes, got {a}")
        return tuple.__new__(cls, (a, b) if a < b else (b, a))

    # ``_replace`` builds through ``_make``: validate there too.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @property
    def endpoints(self) -> Tuple[int, int]:
        return (self.a, self.b)

    def touches(self, node: int) -> bool:
        return node == self.a or node == self.b

    def other(self, node: int) -> int:
        """The endpoint that is not ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"node {node} is not an endpoint of {self!r}")

    def __repr__(self) -> str:
        return f"Link({self.a},{self.b})"


class Message(namedtuple("Message", ("speaker", "bits", "link"))):
    """One message: who wrote it, the bits written, and the link it
    travels on (the board unless the medium says otherwise).

    An immutable tuple-backed value: building, hashing and comparing
    run in C, and the hash is that of ``(speaker, bits, link)``.  It
    equals the plain tuple of its fields.  ``len`` is the bit count.
    """

    __slots__ = ()

    def __new__(cls, speaker: int, bits: Bits, link: Any = BOARD_LINK):
        if speaker < 0:
            raise ValueError(f"speaker index must be >= 0, got {speaker}")
        if not is_bit_string(bits):
            raise ValueError(f"message bits must be a 0/1 string: {bits!r}")
        if link is not BOARD_LINK and not isinstance(link, Link):
            raise ValueError(f"link must be a Link or BOARD_LINK: {link!r}")
        return tuple.__new__(cls, (speaker, bits, link))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # as Link's

    def __getnewargs__(self) -> Tuple[int, Bits, Any]:
        return (self.speaker, self.bits, self.link)  # tuple(self) sizes by len

    def __len__(self) -> int:
        return len(self.bits)


class Transcript:
    """An immutable, hashable sequence of messages (the board contents,
    or on a general medium the global traffic across all links).

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
        inner = ",".join(
            f"{m.speaker}:{m.bits}" if m.link is BOARD_LINK
            else f"{m.speaker}@{m.link!r}:{m.bits}"
            for m in self._messages
        )
        return f"Transcript({inner})"

    # -- accessors ----------------------------------------------------------
    @property
    def messages(self) -> Tuple[Message, ...]:
        """The messages written so far, in order."""
        return self._messages

    @property
    def bits_written(self) -> int:
        """Total number of bits written — the transcript's cost."""
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

    def on_link(self, link: Any) -> List[Message]:
        """All messages carried by ``link``, in order."""
        return [m for m in self._messages if m.link == link]

    def bits_by_link(self) -> Dict[Any, int]:
        """Bits written per link — the per-link communication accounting."""
        totals: Dict[Any, int] = {}
        for m in self._messages:
            totals[m.link] = totals.get(m.link, 0) + len(m)
        return totals


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

    @property
    def max_messages(self) -> int:
        """The most messages any run writes, on any input and any coins.

        Every engine (the runner, the tree walk, the networked parties,
        the Lemma 7 compressor) reads this once per run or walk: a run
        may write exactly this many messages, and one more raises
        :class:`ProtocolViolation`, so a protocol that does not halt
        fails the same way on every path.  A protocol whose count is
        proven overrides this and states the proof; the default is the
        ceiling :data:`DEFAULT_MAX_MESSAGES`.
        """
        return DEFAULT_MAX_MESSAGES

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

    def next_edge(
        self, state: Any, board: Transcript
    ) -> Optional[Tuple[int, Any]]:
        """The next ``(speaker, link)`` to carry a message, or ``None``
        to halt — the hook the engine drives.

        A board protocol speaks on :data:`BOARD_LINK`; protocols stated
        over another medium (:class:`~repro.topology.protocol.
        MediumProtocol`) override this instead of :meth:`next_speaker`.
        """
        speaker = self.next_speaker(state, board)
        if speaker is None:
            return None
        return (speaker, BOARD_LINK)

    @abc.abstractmethod
    def message_distribution(
        self,
        state: Any,
        player: int,
        player_input: Any,
        board: Transcript,
    ) -> DiscreteDistribution:
        """The exact law of the next message (a distribution over bit
        strings), given the speaker's input and the board.  On a medium
        with input-less auxiliary nodes (ids ``>= num_players``) the
        engine passes ``player_input=None`` for them.

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


class Medium(abc.ABC):
    """Who can read what and who may speak where.

    All methods take the number of *players* ``k`` (input holders,
    nodes ``0..k-1``); the medium decides how many nodes exist in total
    (:meth:`num_nodes`), with auxiliary input-less nodes at ids
    ``>= k``.  Every write costs its length in bits, exactly
    :math:`CC(\\Pi)`.  Hooks must be pure — the exact analyzer replays
    transcripts in arbitrary interleavings.

    Contract: :meth:`may_write` returning True implies that ``link`` is
    one of :meth:`links` and ``node`` one of the medium's nodes, so
    :meth:`check_edge` tests only :meth:`may_write` on success.
    """

    #: Stable name used in metric labels and error messages.
    name: str = ""

    @abc.abstractmethod
    def num_nodes(self, k: int) -> int:
        """Total node count (players plus auxiliary nodes)."""

    @abc.abstractmethod
    def links(self, k: int) -> Tuple[Any, ...]:
        """Every link messages may travel on."""

    @abc.abstractmethod
    def may_write(self, k: int, node: int, link: Any) -> bool:
        """Whether ``node`` may write on ``link`` (adjacency)."""

    @abc.abstractmethod
    def visible(self, k: int, link: Any, node: int) -> bool:
        """Whether ``node`` reads the traffic on ``link``."""

    def node_view(self, k: int, transcript: Transcript, node: int) -> Tuple:
        """``node``'s view: the subsequence of messages on its visible
        links, as hashable ``(speaker, link, bits)`` triples.

        This is the information a party actually holds, and therefore
        the object the per-view information decomposition
        (:func:`repro.topology.analysis.per_view_information`) and the
        view-locality discipline (:mod:`repro.core.validate`) are
        stated over.
        """
        if REGISTRY.enabled:
            REGISTRY.counter("topology_view_rebuilds").inc(
                medium=self.name or type(self).__name__
            )
        return tuple(
            (m.speaker, m.link, m.bits)
            for m in transcript
            if self.visible(k, m.link, node)
        )

    def scheduler_view(self, k: int, transcript: Transcript) -> Tuple:
        """The projection of the transcript the schedule may depend on.

        Defaults to public trace metadata — ``(speaker, link, length)``
        per message — the only common knowledge on a general topology.
        Media with an all-seeing party (board, coordinator) override
        this with that party's full view.
        """
        return tuple((m.speaker, m.link, len(m.bits)) for m in transcript)

    def check_edge(self, k: int, speaker: int, link: Any) -> None:
        """Raise :class:`TopologyViolation` unless ``speaker`` may write
        on ``link``.

        O(1) on success (one :meth:`may_write`); :meth:`links` is built
        only after a rejection, to name what went wrong.
        """
        if self.may_write(k, speaker, link):
            return
        name = self.name or type(self).__name__
        if not 0 <= speaker < self.num_nodes(k):
            raise TopologyViolation(
                f"{name}: node {speaker!r} does not exist "
                f"(nodes 0..{self.num_nodes(k) - 1})"
            )
        # Links are typed: a plain tuple equal to a Link is not one.
        if not isinstance(link, (Link, _BoardLink)) or link not in self.links(k):
            raise TopologyViolation(
                f"{name}: {link!r} is not a link of this medium"
            )
        raise TopologyViolation(
            f"{name}: node {speaker} may not write on {link!r} "
            "(not an endpoint)"
        )


class BroadcastMedium(Medium):
    """The shared blackboard: one link, everyone reads and writes.

    The paper's Section 3 model, and the default medium of the runner
    and the exact analyzer.
    """

    name = "broadcast"

    def num_nodes(self, k: int) -> int:
        return k

    def links(self, k: int) -> Tuple[Any, ...]:
        return (BOARD_LINK,)

    def may_write(self, k: int, node: int, link: Any) -> bool:
        return link is BOARD_LINK and 0 <= node < k

    def visible(self, k: int, link: Any, node: int) -> bool:
        return link is BOARD_LINK

    def scheduler_view(self, k: int, transcript: Transcript) -> Tuple:
        # The board contents alone determine whose turn it is — exactly
        # the Section 3 rule, so the scheduler sees everything.
        return tuple((m.speaker, m.link, m.bits) for m in transcript)


#: The broadcast medium (stateless; one shared instance suffices).
BROADCAST = BroadcastMedium()


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

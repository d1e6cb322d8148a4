"""The blackboard service: one authoritative board, order-enforced.

:class:`BlackboardServer` is the network-side embodiment of the shared
blackboard of Section 3: it owns the canonical
:class:`~repro.core.model.Transcript`, serializes writes, enforces the
model's board-determined speaking order, and rebroadcasts every append
to all connected parties.  Crucially it can do all of this **without
seeing any input**: ``next_speaker`` is a function of the board alone,
so the server replays the protocol's state fold over the public board
and knows at all times who may write — the same discipline the paper
requires of the model itself.

The class is *sans-io*: :meth:`handle` maps one inbound frame to a list
of ``(destination party, frame)`` sends.  The loopback pump
(:mod:`repro.net.loopback`) and the asyncio TCP driver
(:mod:`repro.net.tcp`) both drive this one implementation, which is what
keeps the two transports behaviorally identical.

Retry-safety: an APPEND for an already-written round is answered by
re-sending the board suffix when it matches what was written (the
client's confirmation was lost — idempotent retry), and with an ERROR
frame when it conflicts (a genuinely mis-ordered write).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.model import Message, Protocol, Transcript
from ..core.runner import ProtocolRun
from ..obs.trace import TraceContext, get_tracer
from .errors import NetError
from .framing import Frame, FrameKind

__all__ = ["BlackboardServer"]


class BlackboardServer:
    """Sans-io blackboard state machine for one protocol execution.

    When a tracer is installed (:func:`repro.obs.using_tracer`), every
    inbound frame that carries a wire trace context is handled inside a
    ``server_handle`` span parented under the *sender's* span — the
    server's work is attributed to the requesting party purely from
    wire bytes, across transports.
    """

    def __init__(self, protocol: Protocol) -> None:
        self._protocol = protocol
        self._tracer = get_tracer()
        self._state = protocol.initial_state()
        self._board = Transcript()
        #: The BROADCAST frame of every appended round, in order — the
        #: replay log served to late joiners and SYNC requests.
        self._frames: List[Frame] = []
        self._connected: Set[int] = set()
        self._finished: Set[int] = set()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def board(self) -> Transcript:
        """The authoritative board contents."""
        return self._board

    @property
    def frames(self) -> Tuple[Frame, ...]:
        """The append log (one BROADCAST frame per round)."""
        return tuple(self._frames)

    @property
    def expected_speaker(self) -> Optional[int]:
        """Who may write next (``None`` once the protocol has halted)."""
        return self._protocol.next_speaker(self._state, self._board)

    @property
    def halted(self) -> bool:
        return self.expected_speaker is None

    @property
    def finished_parties(self) -> Set[int]:
        """Parties that reported BYE."""
        return set(self._finished)

    def result(self, endpoints: Sequence[Any]) -> ProtocolRun:
        """The :class:`ProtocolRun` of the finished execution; every
        party endpoint must hold the board and agree on the output
        (anything else is a determinism bug: :class:`NetError`)."""
        if not self.halted:
            raise NetError(
                "all parties halted but the server-side protocol has not "
                "— determinism bug"
            )
        board = self._board
        output = None
        for party, endpoint in enumerate(endpoints):
            if endpoint.board != board:
                raise NetError(
                    f"party {party} finished with a board that disagrees "
                    f"with the server's — determinism bug"
                )
            if party == 0:
                output = endpoint.output
            elif endpoint.output != output:
                raise NetError(
                    f"party {party} computed a different output — "
                    f"determinism bug"
                )
        return ProtocolRun(transcript=board, output=output)

    # ------------------------------------------------------------------
    # Frame handling.
    # ------------------------------------------------------------------
    def handle(self, frame: Frame) -> List[Tuple[int, Frame]]:
        """Process one inbound frame; returns the sends it causes."""
        tracer = self._tracer
        if tracer and frame.trace_id is not None:
            with tracer.span(
                "server_handle",
                parent=TraceContext(frame.trace_id, frame.parent_span),
                kind=frame.kind.name,
                party=frame.party,
                round=frame.round_index,
            ):
                return self._dispatch(frame)
        return self._dispatch(frame)

    def _dispatch(self, frame: Frame) -> List[Tuple[int, Frame]]:
        kind = frame.kind
        if kind == FrameKind.HELLO:
            return self._on_hello(frame)
        if kind == FrameKind.APPEND:
            return self._on_append(frame)
        if kind == FrameKind.SYNC:
            return self._on_sync(frame)
        if kind == FrameKind.BYE:
            self._finished.add(frame.party)
            self._connected.discard(frame.party)
            return []
        # WELCOME/BROADCAST/ERROR are server->client only; receiving one
        # here means a confused peer.  Tell it so.
        return [(frame.party, self._error(frame))]

    # ------------------------------------------------------------------
    def _on_hello(self, frame: Frame) -> List[Tuple[int, Frame]]:
        party = frame.party
        if party >= self._protocol.num_players:
            return [(party, self._error(frame))]
        self._connected.add(party)
        self._finished.discard(party)
        out: List[Tuple[int, Frame]] = [
            (
                party,
                Frame(
                    kind=FrameKind.WELCOME,
                    party=party,
                    round_index=len(self._board),
                ),
            )
        ]
        out.extend(self._replay(party, frame.round_index))
        return out

    def _on_append(self, frame: Frame) -> List[Tuple[int, Frame]]:
        party = frame.party
        round_index = frame.round_index
        if round_index < len(self._frames):
            written = self._frames[round_index]
            if (
                written.party == party
                and written.payload == frame.payload
            ):
                # Idempotent retry: the writer missed its confirmation.
                # Re-send the suffix so it catches up.
                return self._replay(party, round_index)
            return [(party, self._error(frame))]
        if round_index > len(self._frames):
            # A client can never legitimately be ahead of the authority.
            return [(party, self._error(frame))]
        expected = self.expected_speaker
        if expected is None or expected != party:
            return [(party, self._error(frame))]
        if frame.payload == "":
            return [(party, self._error(frame))]
        message = Message(speaker=party, bits=frame.payload)
        self._state = self._protocol.advance_state(self._state, message)
        self._board = self._board.extend(message)
        broadcast = Frame(
            kind=FrameKind.BROADCAST,
            party=party,
            round_index=round_index,
            coin_draws=frame.coin_draws,
            payload=frame.payload,
        )
        self._frames.append(broadcast)
        return [(receiver, broadcast) for receiver in sorted(self._connected)]

    def _on_sync(self, frame: Frame) -> List[Tuple[int, Frame]]:
        self._connected.add(frame.party)
        return self._replay(frame.party, frame.round_index)

    def _replay(self, party: int, from_round: int) -> List[Tuple[int, Frame]]:
        from_round = max(0, from_round)
        return [(party, f) for f in self._frames[from_round:]]

    @staticmethod
    def _error(offending: Frame) -> Frame:
        return Frame(
            kind=FrameKind.ERROR,
            party=offending.party,
            round_index=offending.round_index,
        )

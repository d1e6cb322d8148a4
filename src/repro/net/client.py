"""The party endpoint: drives an unmodified ``Protocol`` over frames.

:class:`PartyClient` is the network-side counterpart of one player: it
holds the party's private input and private coins, mirrors the board
locally from BROADCAST frames, and — whenever the board-determined turn
function points at it — samples its next message from
``protocol.message_distribution`` and submits an APPEND.  The protocol
object itself is completely unaware of the network: the same instance
class that :func:`repro.core.runner.run_protocol` executes in-process is
driven here, hook for hook.

Coin-stream replication (the determinism contract)
--------------------------------------------------
``run_protocol`` consumes *one* rng stream, one draw per sampled
(non-point-mass) message, in board order.  To be bit-identical, every
party holds a replica ``random.Random(seed)`` of that stream and keeps
it aligned: each BROADCAST frame carries ``coin_draws`` (how many draws
the speaker spent), and a party advances its replica by exactly that
many draws for every append it did not sample itself this incarnation.
When its own turn comes, its replica sits at precisely the position the
in-memory runner's rng would occupy, so it draws the same coins and
writes the same bits.  A crash-restarted party rebuilds the replica the
same way while replaying the board from the server — catch-up and
determinism come from one mechanism.

Recovery
--------
The client is a sans-io state machine; transports call :meth:`on_frame`
for deliveries and :meth:`on_timeout` when the party has waited
``RetryPolicy.timeout_after(retries)`` ticks without progress.  On a
timeout the client re-sends its unconfirmed APPEND (idempotent at the
server) or asks the server to SYNC the board suffix; the per-attempt
timeout grows geometrically and a party that exhausts
``RetryPolicy.max_retries`` raises
:class:`~repro.net.errors.RetriesExhaustedError` — a typed failure,
never a hang.

The hang guard mirrors :func:`~repro.core.runner.run_protocol` exactly:
both read the protocol's declared bound,
:attr:`~repro.core.model.Protocol.max_messages`.  That runner documents
that exceeding it raises *before* any partial
:class:`~repro.core.runner.ProtocolRun` is observable, and the client
leans on the same contract — it raises
:class:`~repro.core.model.ProtocolViolation` the moment the board would
exceed the bound, so a non-halting protocol fails identically on both
paths, at its declared bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.model import Message, Protocol, ProtocolViolation, Transcript
from ..obs.metrics import REGISTRY
from .errors import OrderViolationError, RetriesExhaustedError
from .framing import Frame, FrameKind

__all__ = ["RetryPolicy", "PartyClient"]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry/backoff knobs for one party endpoint.

    ``timeout`` is in transport ticks — scheduler steps on the loopback
    transport, seconds on TCP (the drivers choose suitable defaults).
    Attempt ``n`` waits ``timeout * backoff**n`` capped at
    ``max_timeout``; after ``max_retries`` fruitless attempts the party
    raises :class:`~repro.net.errors.RetriesExhaustedError`.

    The default ``max_retries`` deliberately exceeds the default
    ``FaultPlan.max_faults`` budget (64): every fruitless attempt by a
    stuck party costs the adversary at least one injected fault
    somewhere on the path that is starving it, so once the fault budget
    runs dry the very next retry round succeeds.  Retries outlasting
    faults is what makes the recoverable fault classes *deterministically*
    recoverable rather than recoverable with high probability.
    """

    timeout: float = 16.0
    backoff: float = 1.25
    max_retries: int = 96
    max_timeout: float = 256.0

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_retries < 1:
            raise ValueError(
                f"max_retries must be >= 1, got {self.max_retries}"
            )

    def timeout_after(self, retries: int) -> float:
        """The wait before the next watchdog firing, after ``retries``
        consecutive fruitless attempts."""
        return min(self.timeout * (self.backoff ** retries), self.max_timeout)


class PartyClient:
    """Sans-io endpoint logic for one party of a networked execution."""

    def __init__(
        self,
        protocol: Protocol,
        party: int,
        player_input: Any,
        *,
        seed: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if not 0 <= party < protocol.num_players:
            raise ValueError(
                f"party must be in [0, {protocol.num_players}), got {party}"
            )
        self._protocol = protocol
        self._party = party
        self._input = player_input
        self._seed = seed
        self._rng = random.Random(seed) if seed is not None else None
        self.retry_policy = retry if retry is not None else RetryPolicy()
        self._max_messages = protocol.max_messages
        self._board = Transcript()
        self._state = protocol.initial_state()
        #: Out-of-order broadcasts buffered until their round is next.
        self._pending: Dict[int, Frame] = {}
        #: Rounds sampled by this incarnation: round -> (bits, draws).
        #: Coins for these were consumed at sampling time, so applying
        #: their broadcast must not advance the replica again.
        self._sampled: Dict[int, Tuple[str, int]] = {}
        self._unacked_round: Optional[int] = None
        self._done = False
        self._output: Any = None
        self._retries = 0

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def party(self) -> int:
        return self._party

    @property
    def board(self) -> Transcript:
        return self._board

    @property
    def done(self) -> bool:
        return self._done

    @property
    def output(self) -> Any:
        if not self._done:
            raise ValueError("party has not halted yet")
        return self._output

    @property
    def retries(self) -> int:
        """Consecutive fruitless watchdog firings since last progress."""
        return self._retries

    def timeout_hint(self) -> float:
        """How long the transport should wait before the next watchdog."""
        return self.retry_policy.timeout_after(self._retries)

    @property
    def expected_speaker(self) -> int:
        """Who may write the next board round, per the model's discipline.

        ``next_speaker`` is a function of the board alone, so every party
        computes the same answer — the byzantine layer leans on this to
        validate the claimed author of each Bracha SEND against its own
        board view instead of trusting the wire."""
        return self._protocol.next_speaker(self._state, self._board)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def connect(self) -> List[Frame]:
        """Frames to send upon (re)connecting to the blackboard."""
        return [
            Frame(
                kind=FrameKind.HELLO,
                party=self._party,
                round_index=len(self._board),
            )
        ]

    def on_frame(self, frame: Frame) -> List[Frame]:
        """Process one delivered frame; returns frames to send back."""
        kind = frame.kind
        if kind == FrameKind.ERROR:
            raise OrderViolationError(
                f"server rejected a frame from party {self._party} "
                f"(round {frame.round_index})"
            )
        if kind == FrameKind.BROADCAST:
            if frame.round_index >= len(self._board):
                self._pending[frame.round_index] = frame
                while len(self._board) in self._pending:
                    self._apply(self._pending.pop(len(self._board)))
            return self._drive()
        if kind == FrameKind.WELCOME:
            return self._drive()
        # Client-bound traffic only ever carries the kinds above.
        raise OrderViolationError(
            f"party {self._party} received unexpected {kind.name} frame"
        )

    def on_timeout(self) -> List[Frame]:
        """Watchdog firing: no progress within the current timeout."""
        if self._done:
            return []
        self._retries += 1
        if REGISTRY.enabled:
            REGISTRY.counter("net_retries").inc(party=self._party)
        if self._retries > self.retry_policy.max_retries:
            waiting_for = (
                f"confirmation of round {self._unacked_round}"
                if self._unacked_round is not None
                else f"round {len(self._board)}"
            )
            raise RetriesExhaustedError(
                f"party {self._party} exhausted "
                f"{self.retry_policy.max_retries} retries waiting for "
                f"{waiting_for}"
            )
        if self._unacked_round is not None:
            bits, draws = self._sampled[self._unacked_round]
            return [
                Frame(
                    kind=FrameKind.APPEND,
                    party=self._party,
                    round_index=self._unacked_round,
                    coin_draws=draws,
                    payload=bits,
                )
            ]
        # If our own earlier sends (HELLO included) were lost before we
        # ever acted, driving may produce the pending APPEND/BYE now;
        # otherwise ask the server to replay what we are missing.
        frames = self._drive()
        if frames:
            return frames
        return [
            Frame(
                kind=FrameKind.SYNC,
                party=self._party,
                round_index=len(self._board),
            )
        ]

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _apply(self, frame: Frame) -> None:
        if len(self._board) >= self._max_messages:
            raise ProtocolViolation(
                f"protocol did not halt within {self._max_messages} messages"
            )
        message = Message(speaker=frame.party, bits=frame.payload)
        if frame.party == self._party and frame.round_index in self._sampled:
            # Our own append coming back: coins were consumed when we
            # sampled it, so only clear the confirmation bookkeeping.
            if self._unacked_round == frame.round_index:
                self._unacked_round = None
        else:
            # Someone else's sampled message (or our own from a previous
            # incarnation, during crash-restart catch-up): advance the
            # coin-stream replica by exactly the draws the speaker spent.
            if frame.coin_draws and self._rng is None:
                raise ProtocolViolation(
                    "protocol requires private randomness but no seed "
                    "was given to the networked run"
                )
            for _ in range(frame.coin_draws):
                self._rng.random()
        self._state = self._protocol.advance_state(self._state, message)
        self._board = self._board.extend(message)
        self._retries = 0  # progress resets the retry budget

    def _drive(self) -> List[Frame]:
        """After any board change: halt, speak, or keep waiting."""
        if self._done:
            return []
        speaker = self._protocol.next_speaker(self._state, self._board)
        if speaker is None:
            self._output = self._protocol.output(self._state, self._board)
            self._done = True
            self._unacked_round = None
            return [Frame(kind=FrameKind.BYE, party=self._party)]
        if speaker != self._party:
            return []
        round_index = len(self._board)
        if self._unacked_round == round_index:
            return []  # already submitted; the watchdog handles loss
        if round_index >= self._max_messages:
            # Same guard, same exception, same timing as run_protocol:
            # fail before anything partial becomes observable.
            raise ProtocolViolation(
                f"protocol did not halt within {self._max_messages} messages"
            )
        if round_index in self._sampled:
            bits, draws = self._sampled[round_index]
        else:
            distribution = self._protocol.message_distribution(
                self._state, self._party, self._input, self._board
            )
            if len(distribution) == 1:
                (bits,) = distribution.support()
                draws = 0
            else:
                if self._rng is None:
                    raise ProtocolViolation(
                        "protocol requires private randomness but no "
                        "seed was given to the networked run"
                    )
                bits = distribution.sample(self._rng)
                draws = 1
            if bits == "":
                raise ProtocolViolation(
                    "protocols may not write empty messages"
                )
            self._sampled[round_index] = (bits, draws)
        self._unacked_round = round_index
        return [
            Frame(
                kind=FrameKind.APPEND,
                party=self._party,
                round_index=round_index,
                coin_draws=draws,
                payload=bits,
            )
        ]

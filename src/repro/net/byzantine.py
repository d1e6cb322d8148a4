"""Bracha reliable broadcast: a byzantine-tolerant layer for the board.

The paper's broadcast model assumes every player sees the *same*
blackboard.  ``repro.net`` enforces that against honest failures (drops,
delays, corruption, crash-restart); this module extends the guarantee to
*lying parties*: up to ``f`` players whose party-to-party traffic
equivocates (conflicting payloads to different parties), forges
(APPENDs claiming the wrong author), replays stale votes, or goes
silent.  The construction is Bracha '87 reliable broadcast:

* **SEND** — the round's speaker broadcasts its APPEND to every party
  (not just the server).
* **ECHO** — on the first SEND whose claimed author matches the
  locally-computed ``next_speaker`` (the model's discipline makes the
  turn order a function of the board alone), each party broadcasts an
  ECHO vote for the value it saw.
* **READY** — on an echo quorum of ``ceil((k+f+1)/2)`` matching votes,
  or on ``f+1`` matching READYs (amplification), each party broadcasts
  a READY vote.
* **deliver** — on ``2f+1`` matching READYs the party forwards the
  APPEND to the :class:`~repro.net.server.BlackboardServer`, which
  stays the single commit authority; the board itself is unchanged.

A *value* is the pair ``(payload, coin_draws)`` — both must agree for
votes to match, because the coin-stream replica (docs/networking.md)
is part of what every honest party must apply identically.

Quorum arithmetic (why ``k > 3f`` is the threshold): with at most
``f`` liars, two echo quorums intersect in an honest party, so at most
one value can ever be readied; and ``k - f`` honest votes reach the
echo quorum iff ``k >= 3f + 1``.  When the threshold is violated the
layer *detects* rather than diverges: if all ``k`` echo votes for a
round are in and no value reached the quorum (an equivocation split),
no honest party can ever send READY and byzantine READYs alone cannot
reach ``f+1`` — the round is structurally undeliverable and
:class:`~repro.net.errors.ByzantineQuorumError` is raised immediately.
Quorum starvation without full information (silent liars) exhausts the
retry budget instead, and the transport re-raises that as the same
typed error.  Never hangs, never silent divergence.

Everything here is a **sans-io state machine** in the same style as
:class:`~repro.net.client.PartyClient`: frames in, ``(dest, frame)``
actions out, driven identically by the loopback scheduler and the TCP
transport.  Two destination sentinels extend the addressing:
:data:`SERVER` (the blackboard) and :data:`ALL_PARTIES` (fan out to
every other party — the transport expands it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.model import Protocol
from ..obs.metrics import REGISTRY
from ..obs.trace import get_tracer
from .client import PartyClient, RetryPolicy
from .errors import ByzantineQuorumError
from .framing import Frame, FrameKind

__all__ = [
    "SERVER",
    "ALL_PARTIES",
    "ByzantineConfig",
    "BrachaRelay",
    "ByzantineParty",
    "echo_quorum",
    "ready_quorum",
]

#: Destination sentinel: the blackboard server.
SERVER = -1
#: Destination sentinel: every party except the sender (transport expands).
ALL_PARTIES = -2

#: A Bracha vote value: the APPEND payload plus its coin-draw count.
Value = Tuple[str, int]
#: One transport action: ``(destination, frame)``.
Action = Tuple[int, Frame]


def echo_quorum(k: int, f: int) -> int:
    """``ceil((k + f + 1) / 2)`` — matching ECHOs required to READY."""
    return (k + f + 2) // 2


def ready_quorum(f: int) -> int:
    """``2f + 1`` — matching READYs required to deliver."""
    return 2 * f + 1


@dataclass(frozen=True)
class ByzantineConfig:
    """Byzantine-tolerance settings for :func:`repro.net.run_networked`.

    ``f`` is the tolerated number of faulty parties (the quorums are
    sized for it); ``plan`` optionally *injects* byzantine behavior on
    the loopback transport (see :class:`repro.net.faults.ByzantineFaultPlan`).
    ``run_networked(byzantine=2)`` is shorthand for ``ByzantineConfig(f=2)``.
    """

    f: int = 1
    plan: Optional[object] = None  # ByzantineFaultPlan; kept loose to avoid a cycle

    def __post_init__(self) -> None:
        if self.f < 0:
            raise ValueError("f must be non-negative")


def party_endpoint(
    protocol: Protocol,
    party: int,
    private_input: Any,
    *,
    seed: Optional[int],
    retry: RetryPolicy,
    byzantine: Optional[ByzantineConfig],
) -> Union[PartyClient, "ByzantineParty"]:
    """One party's endpoint: its :class:`PartyClient`, behind a Bracha
    relay when ``byzantine`` is set."""
    client = PartyClient(protocol, party, private_input, seed=seed,
                         retry=retry)
    if byzantine is None:
        return client
    relay = BrachaRelay(protocol.num_players, byzantine.f, party)
    return ByzantineParty(client, relay)


def check_run_args(
    k: int,
    transport: str,
    *,
    faults: Optional[object] = None,
    byzantine: Optional[ByzantineConfig] = None,
) -> None:
    """The argument checks of every networked entry point: injected
    faults of either kind are loopback-only, the Bracha ready quorum
    must be reachable among the ``k`` parties, and a byzantine plan may
    compromise at most ``f`` of them."""
    plan = byzantine.plan if byzantine is not None else None
    if transport == "tcp" and faults is not None:
        raise ValueError(
            "fault injection is loopback-only: TCP delivers reliably, "
            "so a FaultPlan cannot be honored on transport='tcp'"
        )
    if transport == "tcp" and plan is not None:
        raise ValueError(
            "byzantine fault injection is loopback-only: pass a "
            "ByzantineConfig without a plan on transport='tcp'"
        )
    if byzantine is not None and k < 2 * byzantine.f + 1:
        raise ValueError(
            f"k={k} < 2f+1={2 * byzantine.f + 1}: the Bracha ready "
            f"quorum is unreachable even with every party honest"
        )
    if plan is not None:
        compromised = plan.compromised
        if any(p < 0 or p >= k for p in compromised):
            raise ValueError(
                f"byzantine plan compromises parties {compromised} "
                f"outside range(k={k})"
            )
        if len(compromised) > byzantine.f:
            raise ValueError(
                f"byzantine plan compromises {len(compromised)} "
                f"parties but the config tolerates f={byzantine.f}"
            )


@dataclass
class _Session:
    """Bracha voting state for one board round at one party."""

    #: Claimed author of the validated SEND (``None`` until validated).
    speaker: Optional[int] = None
    #: Value of the validated SEND.
    value: Optional[Value] = None
    #: First ECHO vote seen per voter (later conflicts are equivocation).
    echo_voters: Dict[int, Value] = field(default_factory=dict)
    #: First READY vote seen per voter.
    ready_voters: Dict[int, Value] = field(default_factory=dict)
    #: Value this party has ECHOed / READYed / delivered (monotone flags).
    echoed: Optional[Value] = None
    readied: Optional[Value] = None
    delivered: Optional[Value] = None

    def count(self, votes: Dict[int, Value], value: Value) -> int:
        return sum(1 for v in votes.values() if v == value)


class BrachaRelay:
    """Per-party Bracha state machine over all pending board rounds.

    Pure frames-in/actions-out; the co-located :class:`ByzantineParty`
    keeps it synchronized with the client's board view via
    :meth:`advance` so SEND authorship is validated against the
    locally-computed speaker, never the wire.
    """

    def __init__(self, num_players: int, f: int, party: int) -> None:
        if num_players < 2 * f + 1:
            raise ValueError(
                f"k={num_players} < 2f+1={2 * f + 1}: the ready quorum "
                "is unreachable even with every party honest"
            )
        self.num_players = num_players
        self.f = f
        self.party = party
        self.echo_quorum = echo_quorum(num_players, f)
        self.ready_support = f + 1
        self.ready_quorum = ready_quorum(f)
        self._tracer = get_tracer()
        self._sessions: Dict[int, _Session] = {}
        #: Buffered SENDs for rounds ahead of the board (author unknown yet).
        self._pending_sends: Dict[int, List[Frame]] = {}
        #: Committed ``(speaker, value)`` per settled round, for recovery.
        self._committed: Dict[int, Tuple[int, Value]] = {}
        self._board_length = 0
        self._expected_speaker: Optional[int] = None
        self._reg = REGISTRY if REGISTRY.enabled else None

    # ------------------------------------------------------------------
    # Board synchronization.
    # ------------------------------------------------------------------
    def advance(self, board_length: int, expected_speaker: Optional[int]) -> List[Action]:
        """Sync with the client's board; flush now-validatable SENDs.

        ``expected_speaker`` is ``None`` once the protocol has halted
        from this party's board view — no further round exists, so any
        SEND at or beyond ``board_length`` is forged.
        """
        for r in range(self._board_length, board_length):
            session = self._sessions.pop(r, None)
            if session is not None and session.speaker is not None:
                self._committed[r] = (session.speaker, session.value)
            self._pending_sends.pop(r, None)
        self._board_length = board_length
        self._expected_speaker = expected_speaker
        actions: List[Action] = []
        for frame in self._pending_sends.pop(board_length, []):
            actions.extend(self.handle_send(frame))
        return actions

    # ------------------------------------------------------------------
    # Frame handlers.
    # ------------------------------------------------------------------
    def handle_send(self, frame: Frame) -> List[Action]:
        """An APPEND broadcast party-to-party: the Bracha SEND phase."""
        r = frame.round_index
        value: Value = (frame.payload, frame.coin_draws)
        if r < self._board_length:
            # Stale SEND for a settled round: if it matches what was
            # committed, re-forward to the server whose idempotent
            # replay path catches the (possibly lagging) author up.
            committed = self._committed.get(r)
            if committed == (frame.party, value):
                return [(SERVER, frame)]
            self._count("net_byz_forged_rejected")
            return []
        if r > self._board_length:
            pending = self._pending_sends.setdefault(r, [])
            if frame not in pending and len(pending) < self.num_players:
                pending.append(frame)
            return []
        if self._expected_speaker is None or frame.party != self._expected_speaker:
            # Wrong claimed author for the round the board is at.
            self._count("net_byz_forged_rejected")
            return []
        session = self._sessions.setdefault(r, _Session())
        if session.speaker is None:
            session.speaker = frame.party
            session.value = value
            # Votes may have raced ahead of the SEND (we were lagging);
            # cascade immediately in case a quorum is already sitting here.
            return self._maybe_echo(r, session) + self._cascade(r, session)
        if session.value != value:
            # The speaker itself equivocated; keep the first value.
            self._count("net_byz_equivocations_detected")
            return []
        # Duplicate identical SEND — the speaker's watchdog re-sent.
        # Re-emit our current votes so any lost ECHO/READY is repaired,
        # and re-forward the APPEND if we already delivered it.
        actions: List[Action] = []
        if session.echoed is not None:
            actions.append((ALL_PARTIES, self._vote_frame(FrameKind.ECHO, r, session.echoed)))
        if session.readied is not None:
            actions.append((ALL_PARTIES, self._vote_frame(FrameKind.READY, r, session.readied)))
        if session.delivered is not None and session.speaker is not None:
            actions.append((SERVER, self._append_frame(r, session.speaker, session.delivered)))
        return actions

    def handle_vote(self, frame: Frame) -> List[Action]:
        """An ECHO or READY vote from another party (or ourselves)."""
        r = frame.round_index
        if r < self._board_length:
            self._count("net_byz_replays_ignored")
            return []
        session = self._sessions.setdefault(r, _Session())
        votes = session.echo_voters if frame.kind == FrameKind.ECHO else session.ready_voters
        value: Value = (frame.payload, frame.coin_draws)
        previous = votes.get(frame.party)
        if previous is not None:
            if previous == value:
                self._count("net_byz_replays_ignored")
            else:
                self._count("net_byz_equivocations_detected")
            return []
        votes[frame.party] = value
        if frame.kind == FrameKind.ECHO:
            self._count("net_byz_echoes")
        else:
            self._count("net_byz_readies")
        actions = self._cascade(r, session)
        if frame.kind == FrameKind.ECHO:
            self._check_structural(r, session)
        return actions

    # ------------------------------------------------------------------
    # Introspection (used by transports for typed stall errors).
    # ------------------------------------------------------------------
    def undelivered(self, round_index: int) -> bool:
        """True if a Bracha session for ``round_index`` is stuck open."""
        session = self._sessions.get(round_index)
        return session is not None and session.delivered is None

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _maybe_echo(self, r: int, session: _Session) -> List[Action]:
        if session.echoed is not None or session.value is None:
            return []
        session.echoed = session.value
        return [(ALL_PARTIES, self._vote_frame(FrameKind.ECHO, r, session.value))]

    def _cascade(self, r: int, session: _Session) -> List[Action]:
        """READY on quorum/amplification; deliver on the ready quorum."""
        actions: List[Action] = []
        if session.readied is None:
            for value in self._vote_values(session):
                if (
                    session.count(session.echo_voters, value) >= self.echo_quorum
                    or session.count(session.ready_voters, value) >= self.ready_support
                ):
                    session.readied = value
                    actions.append(
                        (ALL_PARTIES, self._vote_frame(FrameKind.READY, r, value))
                    )
                    break
        if session.delivered is None:
            for value in self._vote_values(session):
                if session.count(session.ready_voters, value) >= self.ready_quorum:
                    actions.extend(self._deliver(r, session, value))
                    break
        return actions

    def _deliver(self, r: int, session: _Session, value: Value) -> List[Action]:
        session.delivered = value
        self._count("net_byz_deliveries")
        tracer = self._tracer
        if tracer:
            with tracer.span(
                "byz_deliver",
                party=self.party,
                round=r,
                echoes=len(session.echo_voters),
                readies=len(session.ready_voters),
            ):
                pass
        # Only relays that saw a matching validated SEND forward the
        # APPEND (they know the true author); a quorum of READYs
        # guarantees at least one honest party did.
        if session.speaker is not None and session.value == value:
            return [(SERVER, self._append_frame(r, session.speaker, value))]
        return []

    def _check_structural(self, r: int, session: _Session) -> None:
        """All ``k`` echo votes in, no value at quorum → undeliverable.

        Honest parties READY only on an echo quorum, which no value can
        reach any more; byzantine READYs alone are at most ``f``, below
        the ``f+1`` amplification threshold — so the ``2f+1`` delivery
        quorum is unreachable forever.  Fail fast and typed.
        """
        if session.delivered is not None or session.readied is not None:
            return
        if len(session.echo_voters) < self.num_players:
            return
        best = max(
            (session.count(session.echo_voters, v) for v in self._vote_values(session)),
            default=0,
        )
        if best < self.echo_quorum:
            raise ByzantineQuorumError(
                f"round {r}: all {self.num_players} echo votes are in but the "
                f"best value has {best} < quorum {self.echo_quorum} — an "
                f"equivocation split; k > 3f is violated "
                f"(k={self.num_players}, f={self.f})"
            )

    def _vote_values(self, session: _Session) -> List[Value]:
        seen: List[Value] = []
        for votes in (session.echo_voters, session.ready_voters):
            for value in votes.values():
                if value not in seen:
                    seen.append(value)
        return seen

    def _vote_frame(self, kind: FrameKind, r: int, value: Value) -> Frame:
        payload, coin_draws = value
        return Frame(
            kind=kind,
            party=self.party,
            round_index=r,
            coin_draws=coin_draws,
            payload=payload,
        )

    def _append_frame(self, r: int, speaker: int, value: Value) -> Frame:
        payload, coin_draws = value
        return Frame(
            kind=FrameKind.APPEND,
            party=speaker,
            round_index=r,
            coin_draws=coin_draws,
            payload=payload,
        )

    def _count(self, name: str) -> None:
        if self._reg is not None:
            self._reg.counter(name).inc(party=str(self.party))


class ByzantineParty:
    """A :class:`PartyClient` wrapped in a :class:`BrachaRelay`.

    Presents the same sans-io surface as the bare client but speaks the
    extended addressing: client APPENDs become Bracha SENDs fanned to
    :data:`ALL_PARTIES`, inbound party-to-party frames feed the relay,
    and everything else passes through to the client untouched.  Frames
    a party would logically send to itself (its own votes) are processed
    locally, never crossing the wire — which is also why a byzantine
    adversary on the transport can never corrupt a party's own vote.
    """

    def __init__(self, client: PartyClient, relay: BrachaRelay) -> None:
        self.client = client
        self.relay = relay
        relay.advance(len(client.board), self._speaker_or_none())

    # -- client passthroughs -------------------------------------------
    @property
    def party(self) -> int:
        return self.client.party

    @property
    def board(self):
        return self.client.board

    @property
    def done(self) -> bool:
        return self.client.done

    @property
    def output(self):
        return self.client.output

    @property
    def retries(self) -> int:
        return self.client.retries

    def timeout_hint(self) -> float:
        return self.client.timeout_hint()

    # -- lifecycle ------------------------------------------------------
    def connect(self) -> List[Action]:
        return self._pump(self._convert(self.client.connect()))

    def on_frame(self, frame: Frame) -> List[Action]:
        kind = frame.kind
        if kind in (FrameKind.ECHO, FrameKind.READY):
            return self._pump(self.relay.handle_vote(frame))
        if kind == FrameKind.APPEND:
            return self._pump(self.relay.handle_send(frame))
        outs = self.client.on_frame(frame)
        actions = self.relay.advance(len(self.client.board), self._speaker_or_none())
        return self._pump(actions) + self._pump(self._convert(outs))

    def on_timeout(self) -> List[Action]:
        return self._pump(self._convert(self.client.on_timeout()))

    # -- internals ------------------------------------------------------
    def _speaker_or_none(self) -> Optional[int]:
        if self.client.done:
            return None
        return self.client.expected_speaker

    def _convert(self, frames: List[Frame]) -> List[Action]:
        """Client frames → actions: APPENDs fan out as Bracha SENDs."""
        return [
            (ALL_PARTIES if f.kind == FrameKind.APPEND else SERVER, f)
            for f in frames
        ]

    def _pump(self, actions: List[Action]) -> List[Action]:
        """Process our own broadcast frames locally (self-delivery).

        A party's own SENDs and votes count at its own relay without a
        network hop; anything that processing emits is pumped in turn.
        Termination: every relay transition is monotone (first-SEND,
        first-vote, echoed/readied/delivered flags), so the recursion
        bottoms out in duplicate-vote no-ops.
        """
        out: List[Action] = []
        queue = list(actions)
        while queue:
            dest, frame = queue.pop(0)
            out.append((dest, frame))
            if dest == ALL_PARTIES:
                if frame.kind in (FrameKind.ECHO, FrameKind.READY):
                    queue.extend(self.relay.handle_vote(frame))
                elif frame.kind == FrameKind.APPEND:
                    queue.extend(self.relay.handle_send(frame))
        return out

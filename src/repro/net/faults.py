"""Deterministic, seeded fault injection for the loopback transport.

The fault model covers the recoverable classes a real comms stack must
absorb — and the unrecoverable ones it must fail loudly on:

=================  ====================================================
``delay``          a frame is held for extra scheduler steps; small
                   delays jitter latency, large ones *reorder* frames
                   (clients buffer out-of-order broadcasts, so delivery
                   constraints are never violated — rounds still apply
                   in order).
``corrupt``        one wire bit is flipped; CRC-32 detection turns this
                   into a detected loss, repaired by SYNC/retry.
``drop``           the frame never arrives; the sender's watchdog
                   re-sends (APPENDs are idempotent at the server).
``crash``          a party loses all volatile state at a scheduled
                   round; with ``restart=True`` a fresh client rejoins,
                   replays the board from the server (blackboard
                   catch-up), and rebuilds its coin-stream replica —
                   without restart the run must end in
                   :class:`~repro.net.errors.CrashedPartyError`.
=================  ====================================================

Everything is derived from ``FaultPlan.seed`` through SHA-256 (the same
call-order-independent discipline as ``repro.check.generator``), so a
faulty run is exactly reproducible.  The injector draws a fixed number
of variates per frame regardless of outcome and of the frame's length,
keeping the fault pattern stable under small plan edits and under
changes to what a frame carries.  A ``max_faults`` budget (default 64)
guarantees the recoverable plans really are recoverable: past the
budget the injector goes quiet, and because the default
``RetryPolicy.max_retries`` exceeds the budget, retries are guaranteed
to outlast the adversary instead of merely probably outlasting it.

The central theory-honesty claim (enforced by ``tests/net/``, on
generated protocols by ``tests/net/test_generated.py``): none of the recoverable classes change
the transcript, output, or counted communication bits — a faulty run is
bit-identical to the fault-free run and to ``run_protocol``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .framing import Frame, FrameKind

__all__ = [
    "PartyCrash",
    "FaultPlan",
    "FaultDecision",
    "FaultInjector",
    "NO_FAULT",
    "recoverable_fault_plans",
    "chaos_plan",
    "ByzantineFaultPlan",
    "ByzantineDecision",
    "ByzantineAdversary",
    "byzantine_fault_plans",
]


def _derive_rng(*parts: object) -> random.Random:
    """SHA-256-seeded rng (kept local so ``repro.net`` does not depend
    on the testing subsystem ``repro.check``)."""
    digest = hashlib.sha256(
        "|".join(repr(p) for p in parts).encode()
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class PartyCrash:
    """Crash ``party`` once it has applied round ``after_round``.

    With ``restart`` the loopback scheduler brings up a fresh
    :class:`~repro.net.client.PartyClient` (same input, same seed, empty
    volatile state) a few steps later; it replays the board from the
    server.  Without ``restart`` the party stays dead and the run fails
    with a typed error.
    """

    party: int
    after_round: int = 0
    restart: bool = True


@dataclass(frozen=True)
class FaultPlan:
    """A seeded fault schedule for one networked run."""

    seed: int = 0
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_rate: float = 0.0
    #: Upper bound on injected extra delay, in scheduler steps.  Values
    #: above the base latency (1 step) reorder deliveries.
    max_delay: float = 4.0
    crashes: Tuple[PartyCrash, ...] = ()
    #: Total probabilistic faults (drops + corruptions + delays) this
    #: plan may inject; ``None`` removes the budget (useful for forcing
    #: unrecoverable behavior in tests).
    max_faults: Optional[int] = 64

    def __post_init__(self) -> None:
        for name in ("drop_rate", "corrupt_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")


@dataclass(frozen=True)
class FaultDecision:
    """What the injector does to one outbound frame."""

    drop: bool = False
    corrupt_bit: Optional[int] = None
    delay: float = 0.0

    @property
    def faulty(self) -> bool:
        return self.drop or self.corrupt_bit is not None or self.delay > 0


NO_FAULT = FaultDecision()


class FaultInjector:
    """Draws per-frame fault decisions from a seeded stream."""

    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._rng = _derive_rng("repro.net.faults", plan.seed)
        self._injected = 0
        self._fired_crashes: Set[int] = set()

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    @property
    def injected(self) -> int:
        """Probabilistic faults injected so far (crashes not included)."""
        return self._injected

    def on_send(self, wire_length_bits: int) -> FaultDecision:
        """Decide the fate of one outbound frame of the given size."""
        plan = self._plan
        # Draw every variate unconditionally so the decision stream is
        # stable regardless of which faults fire.
        u_drop = self._rng.random()
        u_corrupt = self._rng.random()
        u_delay = self._rng.random()
        # One ``random()`` whatever the frame's length: ``randrange``
        # consumes a length-dependent number of words, which would shift
        # every later decision with the frame size.
        bit = int(self._rng.random() * max(wire_length_bits, 1))
        extra = 1.0 + self._rng.random() * max(plan.max_delay - 1.0, 0.0)
        if plan.max_faults is not None and self._injected >= plan.max_faults:
            return NO_FAULT
        if u_drop < plan.drop_rate:
            self._injected += 1
            return FaultDecision(drop=True)
        if u_corrupt < plan.corrupt_rate:
            self._injected += 1
            return FaultDecision(corrupt_bit=bit)
        if u_delay < plan.delay_rate:
            self._injected += 1
            return FaultDecision(delay=extra)
        return NO_FAULT

    def crash_for(self, party: int, board_length: int) -> Optional[PartyCrash]:
        """The not-yet-fired crash triggered by ``party`` having applied
        ``board_length`` rounds, if any (marks it fired)."""
        for index, crash in enumerate(self._plan.crashes):
            if index in self._fired_crashes:
                continue
            if crash.party == party and board_length > crash.after_round:
                self._fired_crashes.add(index)
                return crash
        return None


def recoverable_fault_plans(seed: int = 0) -> Dict[str, FaultPlan]:
    """One canonical plan per recoverable fault class.

    These are the plans the acceptance tests sweep: every registry
    protocol and every generated check protocol must be bit-identical to
    ``run_protocol`` under each of them.
    """
    return {
        "delay": FaultPlan(seed=seed, delay_rate=0.5, max_delay=2.0),
        "reorder": FaultPlan(seed=seed, delay_rate=0.6, max_delay=9.0),
        "corrupt": FaultPlan(seed=seed, corrupt_rate=0.3),
        "drop": FaultPlan(seed=seed, drop_rate=0.3),
        "crash-restart": FaultPlan(
            seed=seed, crashes=(PartyCrash(party=0, after_round=0),)
        ),
    }


def chaos_plan(seed: int = 0) -> FaultPlan:
    """Every recoverable class at once — the stress plan
    ``tests/net/test_generated.py`` applies to generated protocols."""
    return FaultPlan(
        seed=seed,
        drop_rate=0.15,
        corrupt_rate=0.15,
        delay_rate=0.3,
        max_delay=6.0,
        crashes=(PartyCrash(party=0, after_round=0),),
        max_faults=48,
    )


# ----------------------------------------------------------------------
# Byzantine fault plans (loopback-only, like everything above).
#
# Where `FaultPlan` models an *honest-but-unreliable* network, a
# `ByzantineFaultPlan` models *lying parties*: the adversary rewrites or
# injects party-to-party Bracha traffic originating at compromised
# parties.  Three byzantine classes plus persistent silence:
#
# =================  ==================================================
# ``equivocate``     a compromised party's ECHO/READY vote carries a
#                    conflicting payload to one of its destinations —
#                    either *replacing* the honest copy ("split") or
#                    arriving *alongside* it ("double", locally
#                    detectable as equivocation).  SENDs are exempt by
#                    design: under a byzantine *speaker* Bracha only
#                    promises agreement, not delivery (a split SEND may
#                    legally deliver nothing even at k = 3f + 1), so a
#                    SEND-equivocating adversary would void the
#                    bit-identity invariant this plan exists to test.
#                    Wrong SEND payloads are instead exercised by
#                    ``forge`` below, where author validation and
#                    first-write-wins equivocation detection keep the
#                    true value.
# ``forge``          a SEND (APPEND frame) claiming the compromised
#                    party as author is injected toward one
#                    destination; relays validate the claimed author
#                    against their locally-computed ``next_speaker``
#                    and reject wrong-party APPENDs.
# ``replay``         a stale, previously-sent ECHO/READY of the
#                    compromised party is re-injected verbatim; vote
#                    deduplication makes it a no-op.
# ``silent``         listed parties *withhold* all their ECHO/READY
#                    votes (they still run the protocol and speak their
#                    own rounds — refusing to speak at all is outside
#                    the broadcast model, where inputs must eventually
#                    be communicated).  Silence is persistent behavior,
#                    not a per-event fault, so it is never budgeted.
# =================  ==================================================
#
# The same stability discipline as `FaultInjector` applies: a fixed
# number of variates is drawn per broadcast batch regardless of
# outcome, so editing one rate never shifts another class's firing
# pattern.  Lies are additionally *per-round consistent*: for a given
# (origin, round) the poisoned destination and the evil payload are
# derived from the seed, not from the main decision stream, so however
# often the adversary fires within a round it poisons the same single
# destination with the same wrong value.  That is what makes the
# headline invariant testable — each compromised party corrupts at most
# one destination's view per round, at most `f` in total, and with
# `k > 3f` the `k - f` clean views still reach every quorum, so the
# committed board stays bit-identical to `run_protocol`.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ByzantineFaultPlan:
    """A seeded schedule of byzantine (lying-party) behavior."""

    seed: int = 0
    #: Parties whose outbound Bracha traffic the adversary may rewrite.
    parties: Tuple[int, ...] = ()
    equivocate_rate: float = 0.0
    forge_rate: float = 0.0
    replay_rate: float = 0.0
    #: ``"split"`` replaces the honest copy, ``"double"`` sends both,
    #: ``"mixed"`` chooses per firing from the seeded stream.
    equivocation: str = "mixed"
    #: Parties that withhold every ECHO/READY vote (quorum starvation).
    silent: Tuple[int, ...] = ()
    #: Total budgeted lies (equivocations + forgeries + replays);
    #: ``None`` removes the budget.  Silence is not budgeted.
    max_faults: Optional[int] = 64

    def __post_init__(self) -> None:
        for name in ("equivocate_rate", "forge_rate", "replay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.equivocation not in ("mixed", "split", "double"):
            raise ValueError(
                f"equivocation must be 'mixed', 'split' or 'double', "
                f"got {self.equivocation!r}"
            )

    @property
    def compromised(self) -> Tuple[int, ...]:
        """All faulty parties — active liars plus the silent ones."""
        return tuple(sorted(set(self.parties) | set(self.silent)))


@dataclass(frozen=True)
class ByzantineDecision:
    """What the adversary did to one broadcast batch."""

    #: The ``(destination, frame)`` pairs actually placed on the wire.
    sends: Tuple[Tuple[int, Frame], ...]
    #: Which classes fired: subset of equivocate/forge/replay/silence.
    fired: Tuple[str, ...] = ()


class ByzantineAdversary:
    """Rewrites broadcast batches from compromised parties, seeded.

    The transport calls :meth:`on_broadcast` once per ``ALL_PARTIES``
    fan-out whose origin is compromised; honest parties' traffic never
    passes through the adversary, and a party's self-delivered frames
    (its own votes) never cross the wire at all.
    """

    #: Variates drawn per on_broadcast call — fixed, for stream stability.
    DRAWS_PER_BATCH = 4

    def __init__(self, plan: ByzantineFaultPlan, num_players: int) -> None:
        self._plan = plan
        self._k = num_players
        self._rng = _derive_rng("repro.net.byzantine", plan.seed)
        self._injected = 0
        #: Last vote frame seen from each compromised party (replay pool).
        self._vote_cache: Dict[int, Frame] = {}

    @property
    def plan(self) -> ByzantineFaultPlan:
        return self._plan

    @property
    def injected(self) -> int:
        """Budgeted lies injected so far (silence not included)."""
        return self._injected

    def on_broadcast(
        self, origin: int, frame: Frame, dests: Sequence[int]
    ) -> ByzantineDecision:
        """Decide the fate of one broadcast batch from ``origin``."""
        plan = self._plan
        # Fixed draws per batch, regardless of outcome (stability).
        u_equiv = self._rng.random()
        u_forge = self._rng.random()
        u_replay = self._rng.random()
        u_style = self._rng.random()

        is_vote = frame.kind in (FrameKind.ECHO, FrameKind.READY)
        stale = self._vote_cache.get(origin)
        if is_vote:
            self._vote_cache[origin] = frame
        if origin in plan.silent and is_vote:
            return ByzantineDecision(sends=(), fired=("silence",))

        sends: List[Tuple[int, Frame]] = [(d, frame) for d in dests]
        fired: List[str] = []
        budget_left = (
            plan.max_faults is None or self._injected < plan.max_faults
        )
        if origin not in plan.parties or not dests or not budget_left:
            return ByzantineDecision(sends=tuple(sends), fired=tuple(fired))

        target, evil = self._round_lie(origin, frame)
        if (
            u_equiv < plan.equivocate_rate
            and is_vote
            and frame.payload
            and evil is not None
        ):
            style = plan.equivocation
            if style == "mixed":
                style = "split" if u_style < 0.5 else "double"
            slot = dests.index(target)
            if style == "split":
                sends[slot] = (target, evil)
            else:
                sends.insert(slot + 1, (target, evil))
            self._injected += 1
            fired.append("equivocate")
        if u_forge < plan.forge_rate and frame.payload and evil is not None:
            forged = replace(
                evil, kind=FrameKind.APPEND, party=origin, trace_id=None,
                parent_span=None,
            )
            sends.append((target, forged))
            self._injected += 1
            fired.append("forge")
        if u_replay < plan.replay_rate and stale is not None:
            sends.append((target, stale))
            self._injected += 1
            fired.append("replay")
        return ByzantineDecision(sends=tuple(sends), fired=tuple(fired))

    def _round_lie(
        self, origin: int, frame: Frame
    ) -> Tuple[int, Optional[Frame]]:
        """The (target, evil frame) for this (origin, round) — derived
        from the seed alone so repeated firings within a round poison
        the same destination with the same conflicting value."""
        rng = _derive_rng(
            "repro.net.byzantine.lie", self._plan.seed, origin, frame.round_index
        )
        dests = [p for p in range(self._k) if p != origin]
        target = dests[rng.randrange(len(dests))]
        if not frame.payload:
            return target, None
        flipped = ("1" if frame.payload[0] == "0" else "0") + frame.payload[1:]
        return target, replace(
            frame, payload=flipped, trace_id=None, parent_span=None
        )


def byzantine_fault_plans(seed: int = 0, *, party: int = 1) -> Dict[str, ByzantineFaultPlan]:
    """One canonical plan per byzantine class, compromising ``party``.

    Each plan corrupts a single party, so any run with ``f >= 1`` and
    ``k > 3f`` must absorb all of them bit-identically — the byzantine
    acceptance sweep mirrors ``recoverable_fault_plans``.
    """
    return {
        "equivocate": ByzantineFaultPlan(
            seed=seed, parties=(party,), equivocate_rate=0.6
        ),
        "forge": ByzantineFaultPlan(seed=seed, parties=(party,), forge_rate=0.5),
        "replay": ByzantineFaultPlan(seed=seed, parties=(party,), replay_rate=0.6),
        "silent": ByzantineFaultPlan(seed=seed, silent=(party,)),
        "byz-chaos": ByzantineFaultPlan(
            seed=seed,
            parties=(party,),
            equivocate_rate=0.4,
            forge_rate=0.25,
            replay_rate=0.4,
        ),
    }

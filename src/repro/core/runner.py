"""Concrete execution of protocols with exact bit accounting.

:func:`run_protocol` plays one execution of a protocol on concrete inputs,
sampling private coins from a supplied RNG, and returns a
:class:`ProtocolRun` carrying the transcript, the output, and the number
of bits written — the realized communication cost.  This is the engine
behind the communication-scaling experiment (E1), where inputs are far too
large for exact tree enumeration, and behind every medium: the loop asks
:meth:`~repro.core.model.Protocol.next_edge` for the next
``(speaker, link)`` and checks it with :meth:`~repro.core.model.Medium.
check_edge`, so the blackboard (the default) and the coordinator and
graph media of :mod:`repro.topology` share one loop.

The protocol's :attr:`~repro.core.model.Protocol.max_messages` bound
turns a non-halting protocol bug into an exception instead of a hang: a
run may write exactly that many messages, and asking for one more
raises.  The guard is *atomic*: exhaustion raises
:class:`~repro.core.model.ProtocolViolation` before any partial result
becomes observable — no truncated
:class:`ProtocolRun` is returned, no success counters
(``runner_executions`` / ``bits_written`` / ``runner_messages``) are
incremented, and no ``run_complete`` trace event is emitted
(per-``message`` events for the rounds that did happen are emitted, as
with any mid-run failure).  The networked runtime's
:class:`~repro.net.client.PartyClient` relies on this contract for its
hang guard: it raises the *same* exception with the *same* message at
the same board length, so a non-halting protocol fails identically
in-memory and over the wire.

Observability: the runner emits one ``message`` trace event per message
written (speaker, bit length, round index, cumulative bits) and feeds
the ``bits_written`` / ``runner_messages`` counters and the
``message_bits`` histogram of :mod:`repro.obs.metrics`.  With the
default :class:`~repro.obs.NullTracer` and metrics disabled, the hot
loop pays a single falsy check per message — traced and untraced runs
are bit-identical (asserted by tests).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from ..obs.metrics import REGISTRY
from ..obs.trace import Tracer, get_tracer
from .model import (
    BOARD_LINK,
    BROADCAST,
    EMPTY_TRANSCRIPT,
    BroadcastMedium,
    Medium,
    Message,
    Protocol,
    ProtocolViolation,
    Transcript,
)

__all__ = ["ProtocolRun", "run_protocol"]


@dataclass(frozen=True)
class ProtocolRun:
    """The result of one protocol execution."""

    transcript: Transcript
    output: Any

    @property
    def bits_communicated(self) -> int:
        """Bits written to the board."""
        return self.transcript.bits_written

    @property
    def rounds(self) -> int:
        """Messages written (rounds of speech)."""
        return len(self.transcript)

    @property
    def bits_by_link(self) -> Dict[Any, int]:
        """Bits written per link (one entry on the board)."""
        return self.transcript.bits_by_link()


def run_protocol(
    protocol: Protocol,
    inputs: Sequence[Any],
    *,
    rng: Optional[random.Random] = None,
    medium: Medium = BROADCAST,
) -> ProtocolRun:
    """Execute ``protocol`` once on ``inputs``.

    The run is traced into the process-wide tracer
    (:func:`repro.obs.using_tracer`; a no-op unless one was installed).
    Tracing never touches ``rng``, so traced and untraced executions
    are identical.

    Parameters
    ----------
    protocol:
        The protocol to run.  A run that would write more than its
        :attr:`~repro.core.model.Protocol.max_messages` raises
        :class:`ProtocolViolation` *before* any partial run, counter
        increment, or ``run_complete`` event is observable (the
        atomicity :class:`~repro.net.client.PartyClient` leans on).
    inputs:
        One private input per player; auxiliary medium nodes (ids
        ``>= num_players``) speak with ``player_input=None``.
    rng:
        Source of the players' private randomness.  May be omitted for
        deterministic protocols; a randomized protocol raises
        :class:`ProtocolViolation` if it needs coins and none were given.
    medium:
        The communication medium (default: the blackboard).  Every
        scheduled ``(speaker, link)`` edge is checked against it; an
        edge the medium does not allow raises
        :class:`~repro.core.model.TopologyViolation`.

    Returns
    -------
    ProtocolRun
        The transcript, output, realized communication in bits, and the
        number of messages (rounds of speech).
    """
    tracer = get_tracer()
    if tracer:
        with tracer.span(
            "run_protocol",
            protocol=type(protocol).__name__,
            players=protocol.num_players,
        ):
            return _execute(protocol, inputs, rng, tracer, medium)
    return _execute(protocol, inputs, rng, tracer, medium)


def _execute(
    protocol: Protocol,
    inputs: Sequence[Any],
    rng: Optional[random.Random],
    tracer: Tracer,
    medium: Medium,
) -> ProtocolRun:
    protocol.validate_inputs(inputs)
    k = protocol.num_players
    num_nodes = medium.num_nodes(k)
    # Per run: bound hooks, ``next_speaker`` when the board's ``next_edge``
    # is kept, and on the plain board an inline edge check (its
    # ``may_write`` is the range check plus ``link is BOARD_LINK``); a
    # failing edge, or any other medium, goes through ``check_edge``.
    next_edge = protocol.next_edge
    next_speaker = (
        protocol.next_speaker
        if getattr(next_edge, "__func__", None) is Protocol.next_edge
        else None
    )
    message_distribution = protocol.message_distribution
    advance_state = protocol.advance_state
    check_edge = medium.check_edge
    on_board = type(medium) is BroadcastMedium
    reg = REGISTRY if REGISTRY.enabled else None
    message_bits_hist = (
        reg.histogram("message_bits") if reg is not None else None
    )
    # Hoist the tracer truthiness test out of the message loop: with the
    # default NullTracer this makes the per-message cost a plain local
    # bool check rather than a __bool__ method call.
    traced = bool(tracer)
    state = protocol.initial_state()
    bits = 0
    board = EMPTY_TRANSCRIPT
    max_messages = protocol.max_messages
    for _ in range(max_messages):
        if next_speaker is not None:
            speaker = next_speaker(state, board)
            if speaker is None:
                break
            link = BOARD_LINK
        else:
            edge = next_edge(state, board)
            if edge is None:
                break
            speaker, link = edge
        if not 0 <= speaker < num_nodes:
            raise ProtocolViolation(
                f"next_edge returned invalid player {speaker!r}"
            )
        if not (on_board and link is BOARD_LINK):
            check_edge(k, speaker, link)
        dist = message_distribution(
            state, speaker, inputs[speaker] if speaker < k else None, board
        )
        if len(dist) == 1:
            (message_bits,) = dist
        else:
            if rng is None:
                raise ProtocolViolation(
                    "protocol requires private randomness but no rng was given"
                )
            message_bits = dist.sample(rng)
        if message_bits == "":
            raise ProtocolViolation("protocols may not write empty messages")
        message = Message(speaker, message_bits, link)
        bits += len(message_bits)
        if traced:
            tracer.event(
                "message",
                speaker=speaker,
                bits=len(message_bits),
                round=len(board),
                cumulative_bits=bits,
            )
        if message_bits_hist is not None:
            message_bits_hist.observe(len(message_bits))
        state = advance_state(state, message)
        board = board.extend(message)
    else:
        # The budget is spent; only a message past it is a violation, so
        # a run that halts after exactly ``max_messages`` still returns.
        if next_speaker is not None:
            halted = next_speaker(state, board) is None
        else:
            halted = next_edge(state, board) is None
        if not halted:
            raise ProtocolViolation(
                f"protocol did not halt within {max_messages} messages"
            )
    output = protocol.output(state, board)
    rounds = len(board)
    if traced:
        tracer.event("run_complete", bits=bits, rounds=rounds, output=output)
    if reg is not None:
        name = type(protocol).__name__
        reg.counter("runner_executions").inc(protocol=name)
        reg.counter("bits_written").inc(bits, protocol=name, players=k)
        reg.counter("runner_messages").inc(rounds, protocol=name)
    return ProtocolRun(transcript=board, output=output)

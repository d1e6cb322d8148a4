"""Human-readable views of protocols and transcripts.

Debugging aids for protocol authors and for studying the lower-bound
machinery:

* :func:`render_protocol_tree` — ASCII rendering of a protocol's
  reachable tree against an input family, with reaching-input counts and
  outputs at the leaves;
* :func:`annotate_transcript` — a transcript printed message by message
  with the Lemma 3 factors :math:`q_{i,b}`, the :math:`\\alpha`
  coefficients, and (optionally) the running observer posterior — the
  quantities the Section 4 analysis reads off a transcript;
* :func:`render_information_profile` — the per-round chain-rule terms as
  a text bar chart.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence

from ..information.distribution import DiscreteDistribution
from .model import Message, Protocol, Transcript
from .profile import information_profile

__all__ = [
    "render_protocol_tree",
    "annotate_transcript",
    "render_information_profile",
]

#: Characters in the largest bar of :func:`render_information_profile`.
PROFILE_WIDTH = 40


def render_protocol_tree(
    protocol: Protocol,
    input_tuples: Sequence[Sequence[Any]],
    *,
    max_depth: int = 12,
    max_lines: int = 400,
) -> str:
    """ASCII view of the reachable protocol tree.

    Each node shows the message that led to it, the speaker of the next
    message, and how many of the given inputs can reach it; leaves show
    the protocol's output.
    """
    lines: List[str] = []

    def reaching(board: Transcript) -> List[Sequence[Any]]:
        result = []
        for inputs in input_tuples:
            state = protocol.initial_state()
            current = Transcript()
            ok = True
            for message in board:
                speaker = protocol.next_speaker(state, current)
                if speaker != message.speaker:
                    ok = False
                    break
                dist = protocol.message_distribution(
                    state, speaker, inputs[speaker], current
                )
                if dist[message.bits] <= 0.0:
                    ok = False
                    break
                state = protocol.advance_state(state, message)
                current = current.extend(message)
            if ok:
                result.append(inputs)
        return result

    def walk(state: Any, board: Transcript, prefix: str, label: str) -> None:
        if len(lines) >= max_lines:
            return
        inputs_here = reaching(board)
        speaker = protocol.next_speaker(state, board)
        if speaker is None:
            output = protocol.output(state, board)
            lines.append(
                f"{prefix}{label} -> output {output!r} "
                f"[{len(inputs_here)} inputs]"
            )
            return
        lines.append(
            f"{prefix}{label} (player {speaker} speaks) "
            f"[{len(inputs_here)} inputs]"
        )
        if len(board) >= max_depth:
            lines.append(f"{prefix}  ... (max depth reached)")
            return
        messages: List[str] = []
        for inputs in inputs_here:
            dist = protocol.message_distribution(
                state, speaker, inputs[speaker], board
            )
            for bits in dist.support():
                if bits not in messages:
                    messages.append(bits)
        for bits in sorted(messages):
            message = Message(speaker, bits)
            walk(
                protocol.advance_state(state, message),
                board.extend(message),
                prefix + "  ",
                f"'{bits}'",
            )

    walk(protocol.initial_state(), Transcript(), "", "<root>")
    if len(lines) >= max_lines:
        lines.append("... (output truncated)")
    return "\n".join(lines)


def annotate_transcript(
    protocol: Protocol,
    transcript: Transcript,
    *,
    input_dist: Optional[DiscreteDistribution] = None,
) -> str:
    """Print a transcript with its Lemma 3 / Lemma 4 annotations, over
    bit inputs.

    With ``input_dist`` given, the running observer posterior over input
    tuples is shown after every message.
    """
    from ..lowerbounds.decomposition import transcript_factors

    k = protocol.num_players
    lines: List[str] = [f"transcript with {len(transcript)} messages:"]
    posterior = None
    if input_dist is not None:
        from ..compression.one_shot import ObserverPosterior

        posterior = ObserverPosterior(protocol, input_dist)

    state = protocol.initial_state()
    board = Transcript()
    for index, message in enumerate(transcript):
        lines.append(
            f"  [{index}] player {message.speaker} writes "
            f"{message.bits!r}"
        )
        if posterior is not None:
            posterior.observe(state, message.speaker, board, message.bits)
            top = sorted(
                posterior.distribution().items(), key=lambda item: -item[1]
            )[:3]
            rendered = ", ".join(f"{x}: {p:.3f}" for x, p in top)
            lines.append(f"        observer posterior: {rendered}")
        state = protocol.advance_state(state, message)
        board = board.extend(message)

    factors = transcript_factors(protocol, transcript, [[0, 1]] * k)
    lines.append("  Lemma 3 factors q_(i,b) and alpha_i:")
    for i in range(k):
        table = factors.factors[i]
        alpha = factors.alpha(i, zero=0, one=1)
        alpha_str = (
            "inf" if math.isinf(alpha)
            else ("nan" if math.isnan(alpha) else f"{alpha:.4g}")
        )
        cells = ", ".join(f"q({b})={q:.4g}" for b, q in table.items())
        lines.append(f"    player {i}: {cells}, alpha={alpha_str}")
    return "\n".join(lines)


def render_information_profile(
    protocol: Protocol,
    input_dist: DiscreteDistribution,
) -> str:
    """The per-round information terms as a text bar chart, the
    largest bar :data:`PROFILE_WIDTH` characters wide."""
    profile = information_profile(protocol, input_dist)
    if not profile:
        return "(no rounds)"
    peak = max(r.revealed for r in profile) or 1.0
    lines = ["round  revealed (bits)"]
    for r in profile:
        bar = "#" * max(int(round(r.revealed / peak * PROFILE_WIDTH)), 0)
        speakers = ",".join(map(str, r.speakers)) or "-"
        lines.append(
            f"{r.round_index:>5}  {r.revealed:7.4f}  {bar}  "
            f"(speakers {speakers}; halted {r.halt_probability:.2f})"
        )
    total = sum(r.revealed for r in profile)
    lines.append(f"total  {total:7.4f}  = IC(protocol)")
    return "\n".join(lines)

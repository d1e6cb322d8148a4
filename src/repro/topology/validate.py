"""Mechanical validation of medium-model discipline.

The medium generalization adds two locality requirements the blackboard
never had to state, because there everyone sees everything:

* **Scheduler locality** — whose turn it is may depend only on the
  medium's scheduler view of the transcript (the coordinator's view in
  the coordinator model, public metadata on a general graph).  Two
  reachable global transcripts with the same scheduler view must get
  the same ``next_edge`` decision.
* **View locality** — a speaker's message law may depend only on its
  own input and its own view.  Two reachable global transcripts where
  the scheduled speaker has the same view, fed the same input, must
  yield the same message distribution.  A protocol that keys a message
  law on traffic the speaker cannot read (a *view leak*) fails here —
  the defect the ``topology-discipline`` oracle's ``view-leak`` planted
  bug introduces and this audit must catch.

Plus the blackboard discipline restated per medium: prefix-freeness of
each (speaker, view) message set so every reader can parse its visible
traffic, structural validity of every scheduled edge (caught as a typed
:class:`~repro.topology.medium.TopologyViolation`), and incremental vs
replayed state consistency.

The check enumerates all transcripts reachable from an input family
(with per-input replay filtering, as :func:`repro.core.validate.
reachable_boards` does) and *groups* them by the relevant projection:
locality is asserted as agreement within each group.  This is exact for
the enumerated family — no restricted replay is attempted, so global
state folding cannot produce false positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.model import (
    EMPTY_TRANSCRIPT,
    Medium,
    Message,
    Protocol,
    ProtocolViolation,
    TopologyViolation,
    Transcript,
    check_prefix_free,
)
from ..core.tree import transcript_distribution

__all__ = ["TopologyReport", "validate_topology"]


@dataclass
class TopologyReport:
    """What :func:`validate_topology` explored and confirmed."""

    transcripts_checked: int = 0
    max_transcript_length: int = 0
    edges_valid: bool = True
    scheduler_local: bool = True
    view_local: bool = True
    prefix_free_everywhere: bool = True
    replay_consistent: bool = True
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _transcript_reachable(
    protocol: Protocol,
    medium: Medium,
    transcript: Transcript,
    inputs: Sequence[Any],
) -> bool:
    """Whether ``inputs`` generates ``transcript`` with positive
    probability."""
    k = protocol.num_players
    state = protocol.initial_state()
    current = EMPTY_TRANSCRIPT
    for message in transcript:
        edge = protocol.next_edge(state, current)
        if edge != (message.speaker, message.link):
            return False
        speaker_input = inputs[message.speaker] if message.speaker < k else None
        dist = protocol.message_distribution(
            state, message.speaker, speaker_input, current
        )
        if dist[message.bits] <= 0.0:
            return False
        state = protocol.advance_state(state, message)
        current = current.extend(message)
    return True


def validate_topology(
    protocol: Protocol,
    medium: Medium,
    input_tuples: Sequence[Sequence[Any]],
    *,
    max_transcripts: int = 100_000,
) -> TopologyReport:
    """Audit medium discipline over every transcript reachable from the
    given input family; ``report.ok`` is True when the protocol is sound
    on that family under that medium."""
    report = TopologyReport()
    k = protocol.num_players

    # ------------------------------------------------------------------
    # Enumerate reachable (state, transcript) pairs, recording for each
    # non-final transcript the scheduled edge and, per reaching input,
    # the speaker's message distribution.
    # ------------------------------------------------------------------
    # scheduler view -> {edge: example transcript}
    schedule_by_view: Dict[Tuple, Dict[Any, Transcript]] = {}
    # (speaker, speaker view, speaker input) -> {law items: example}
    law_by_view: Dict[Tuple, Dict[Tuple, Transcript]] = {}

    frontier: List[Tuple[Any, Transcript]] = [
        (protocol.initial_state(), EMPTY_TRANSCRIPT)
    ]
    seen = {EMPTY_TRANSCRIPT}
    while frontier:
        if len(seen) > max_transcripts:
            raise ProtocolViolation(
                f"more than {max_transcripts} reachable transcripts; pass a "
                "smaller input family"
            )
        state, transcript = frontier.pop()
        report.transcripts_checked += 1
        report.max_transcript_length = max(
            report.max_transcript_length, len(transcript)
        )

        edge = protocol.next_edge(state, transcript)

        # Scheduler locality: transcripts sharing a scheduler view must
        # share the edge decision (halting counts as a decision).
        sched_view = medium.scheduler_view(k, transcript)
        decisions = schedule_by_view.setdefault(sched_view, {})
        if edge not in decisions:
            decisions[edge] = transcript
            if len(decisions) > 1:
                report.scheduler_local = False
                other_edge, other = next(iter(decisions.items()))
                report.problems.append(
                    f"scheduler locality violated: transcripts {other!r} and "
                    f"{transcript!r} share a scheduler view but schedule "
                    f"{other_edge!r} vs {edge!r}"
                )

        if edge is None:
            continue
        speaker, link = edge
        try:
            medium.check_edge(k, speaker, link)
        except TopologyViolation as error:
            report.edges_valid = False
            report.problems.append(f"transcript {transcript!r}: {error}")
            continue

        # Replay consistency on the turn decision.
        replayed = protocol.replay_state(transcript)
        if protocol.next_edge(replayed, transcript) != edge:
            report.replay_consistent = False
            report.problems.append(
                f"transcript {transcript!r}: replayed state disagrees on "
                "the scheduled edge"
            )

        messages = set()
        for inputs in input_tuples:
            if not _transcript_reachable(protocol, medium, transcript, inputs):
                continue
            speaker_input = inputs[speaker] if speaker < k else None
            dist = protocol.message_distribution(
                state, speaker, speaker_input, transcript
            )
            messages.update(dist.support())

            # View locality: same (speaker, view, input) across global
            # transcripts must give the same law.
            view_key = (
                speaker,
                medium.node_view(k, transcript, speaker),
                speaker_input,
            )
            law = tuple(dist.items())
            laws = law_by_view.setdefault(view_key, {})
            if law not in laws:
                laws[law] = transcript
                if len(laws) > 1:
                    report.view_local = False
                    report.problems.append(
                        f"view locality violated: node {speaker} has the "
                        f"same view and input at {laws[law]!r} and another "
                        "transcript but different message laws"
                    )

        if messages:
            try:
                check_prefix_free(messages)
            except ProtocolViolation as error:
                report.prefix_free_everywhere = False
                report.problems.append(f"transcript {transcript!r}: {error}")

        for bits in messages:
            message = Message(speaker, bits, link)
            extended = transcript.extend(message)
            if extended not in seen:
                seen.add(extended)
                frontier.append(
                    (protocol.advance_state(state, message), extended)
                )

    # ------------------------------------------------------------------
    # Final-transcript output consistency per input.
    # ------------------------------------------------------------------
    for inputs in input_tuples:
        for transcript in transcript_distribution(
            protocol, inputs, medium=medium
        ).support():
            state = protocol.initial_state()
            for message in transcript:
                state = protocol.advance_state(state, message)
            replayed = protocol.replay_state(transcript)
            incremental = protocol.output(state, transcript)
            from_scratch = protocol.output(replayed, transcript)
            if incremental != from_scratch:
                report.replay_consistent = False
                report.problems.append(
                    f"inputs {tuple(inputs)!r}: output mismatch between "
                    "incremental and replayed state"
                )
    return report

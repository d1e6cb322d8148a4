"""Mechanical validation of model discipline, on any medium.

The exactness of everything in this library — the Lemma 3 decomposition,
the information-cost functionals, the compression pipeline — rests on
protocols actually obeying the model of Section 3.  This module checks a
protocol on a medium against a family of inputs, over every transcript
reachable from that family:

* **Self-delimiting transcripts**: at every reachable state, the union
  over inputs of the speaker's possible messages is prefix-free.
* **Consistent state folding**: the incremental ``advance_state`` agrees
  with replaying the transcript from scratch, for the scheduled edge and
  for outputs.
* **Edge validity**: every scheduled ``(speaker, link)`` passes
  ``medium.check_edge``.
* **Scheduler locality**: transcripts with the same scheduler view get
  the same ``next_edge`` decision (halting counts as a decision).
* **View locality**: a speaker with the same view and input gets the
  same message law — keying a law on traffic the speaker cannot read
  (a *view leak*) fails here.

Both localities hold by construction on the blackboard (the default
medium), where everyone sees everything; they bite on the coordinator
and graph media of :mod:`repro.topology`.  Locality is agreement within
groups of enumerated transcripts, so it is exact for the family.

Use :func:`validate_protocol` when implementing a new protocol; the test
suite applies it to every protocol shipped here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from .model import (
    BROADCAST,
    Medium,
    Message,
    Protocol,
    ProtocolViolation,
    TopologyViolation,
    Transcript,
    check_prefix_free,
)

__all__ = ["ValidationReport", "validate_protocol", "reachable_boards"]


@dataclass
class ValidationReport:
    """What :func:`validate_protocol` explored and confirmed."""

    states_checked: int = 0
    max_board_length: int = 0
    prefix_free_everywhere: bool = True
    replay_consistent: bool = True
    edges_valid: bool = True
    scheduler_local: bool = True
    view_local: bool = True
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _visits(
    protocol: Protocol,
    input_tuples: Sequence[Sequence[Any]],
    medium: Medium,
    max_boards: int,
) -> Iterator[Tuple[Any, Transcript, Any, Any, list, set]]:
    """BFS over every transcript reachable from the given inputs.

    Yields ``(state, board, edge, rejection, laws, messages)``: ``edge``
    is the scheduled ``(speaker, link)`` (``None`` at a final board),
    ``rejection`` is ``medium.check_edge``'s complaint (the board is then
    not expanded), ``laws`` holds ``(speaker input, message law)`` for
    every input reaching the board and ``messages`` their union support.
    """
    k = protocol.num_players
    frontier: List[Tuple[Any, Transcript]] = [
        (protocol.initial_state(), Transcript())
    ]
    seen = {Transcript()}
    while frontier:
        if len(seen) > max_boards:
            raise ProtocolViolation(
                f"more than {max_boards} reachable boards; pass a smaller "
                "input family"
            )
        state, board = frontier.pop()
        edge = protocol.next_edge(state, board)
        if edge is None:
            yield state, board, None, None, [], set()
            continue
        speaker, link = edge
        try:
            medium.check_edge(k, speaker, link)
        except TopologyViolation as error:
            yield state, board, edge, str(error), [], set()
            continue
        laws = []
        # Messages in first-seen order: expanding a set would order the
        # BFS, and with it the report's problems, by string hashes.
        messages: Dict[str, None] = {}
        for inputs in input_tuples:
            if not _reachable(protocol, board, inputs):
                continue
            speaker_input = inputs[speaker] if speaker < k else None
            dist = protocol.message_distribution(
                state, speaker, speaker_input, board
            )
            laws.append((speaker_input, dist))
            messages.update(dict.fromkeys(dist.support()))
        yield state, board, edge, None, laws, set(messages)
        for bits in messages:
            message = Message(speaker, bits, link)
            extended = board.extend(message)
            if extended not in seen:
                seen.add(extended)
                frontier.append(
                    (protocol.advance_state(state, message), extended)
                )


def _reachable(
    protocol: Protocol, board: Transcript, inputs: Sequence[Any]
) -> bool:
    """Whether ``inputs`` generates ``board`` with positive probability."""
    k = protocol.num_players
    state = protocol.initial_state()
    current = Transcript()
    for message in board:
        speaker = message.speaker
        if protocol.next_edge(state, current) != (speaker, message.link):
            return False
        speaker_input = inputs[speaker] if speaker < k else None
        dist = protocol.message_distribution(
            state, speaker, speaker_input, current
        )
        if dist[message.bits] <= 0.0:
            return False
        state = protocol.advance_state(state, message)
        current = current.extend(message)
    return True


def reachable_boards(
    protocol: Protocol,
    input_tuples: Sequence[Sequence[Any]],
    *,
    medium: Medium = BROADCAST,
    max_boards: int = 100_000,
) -> Iterator[Tuple[Any, Transcript, int, set]]:
    """BFS over all board states reachable from the given inputs.

    Yields ``(state, board, speaker, message_set)`` for every reachable
    non-final board with a valid edge, where ``message_set`` is the
    union over (reaching) inputs of the speaker's supported messages.
    """
    for state, board, edge, rejection, _laws, messages in _visits(
        protocol, input_tuples, medium, max_boards
    ):
        if edge is not None and rejection is None:
            yield state, board, edge[0], messages


def validate_protocol(
    protocol: Protocol,
    input_tuples: Sequence[Sequence[Any]],
    *,
    medium: Medium = BROADCAST,
    max_boards: int = 100_000,
) -> ValidationReport:
    """Check the model discipline on ``medium`` over every transcript
    reachable from the given inputs; returns a report whose ``ok`` is
    True when the protocol is sound on that family."""
    report = ValidationReport()
    k = protocol.num_players
    # scheduler view -> {edge decision: first transcript making it}
    schedules: Dict[Tuple, Dict[Any, Transcript]] = {}
    # (speaker, speaker view, speaker input) -> distinct message laws
    view_laws: Dict[Tuple, set] = {}
    for state, board, edge, rejection, laws, messages in _visits(
        protocol, input_tuples, medium, max_boards
    ):
        decisions = schedules.setdefault(medium.scheduler_view(k, board), {})
        if edge not in decisions:
            decisions[edge] = board
            if len(decisions) > 1:
                report.scheduler_local = False
                other_edge, other = next(iter(decisions.items()))
                report.problems.append(
                    f"scheduler locality violated: transcripts {other!r} and "
                    f"{board!r} share a scheduler view but schedule "
                    f"{other_edge!r} vs {edge!r}"
                )
        replayed = protocol.replay_state(board)
        if edge is None:
            if protocol.output(state, board) != protocol.output(
                replayed, board
            ):
                report.replay_consistent = False
                report.problems.append(
                    f"board {board!r}: output mismatch between incremental "
                    "and replayed state"
                )
            continue
        report.states_checked += 1
        report.max_board_length = max(report.max_board_length, len(board))
        if rejection is not None:
            report.edges_valid = False
            report.problems.append(f"board {board!r}: {rejection}")
            continue
        if messages:
            try:
                check_prefix_free(messages)
            except ProtocolViolation as error:
                report.prefix_free_everywhere = False
                report.problems.append(f"board {board!r}: {error}")
        speaker = edge[0]
        view = medium.node_view(k, board, speaker)
        for speaker_input, dist in laws:
            known = view_laws.setdefault((speaker, view, speaker_input), set())
            law = tuple(dist.items())
            if law not in known:
                known.add(law)
                if len(known) > 1:
                    report.view_local = False
                    report.problems.append(
                        f"view locality violated: node {speaker} has the "
                        f"same view and input at {board!r} and another "
                        "transcript but different message laws"
                    )
        if protocol.next_edge(replayed, board) != edge:
            report.replay_consistent = False
            report.problems.append(
                f"board {board!r}: replayed state disagrees on the edge"
            )
    return report

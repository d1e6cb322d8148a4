"""Model-discipline tests applied to every shipped protocol.

The blackboard model requires that (a) the turn function depends only on
the board, (b) transcripts are self-delimiting, i.e. at every reachable
board state the union (over inputs) of possible next messages is
prefix-free, and (c) board-state folding (`advance_state`) agrees with
re-deriving the state from scratch (`replay_state`).  These properties
are what make the Lemma 3 decomposition and the whole exact analysis
sound.

Coverage is registry-driven: the sweep runs over
``repro.protocols.ALL_PROTOCOLS`` (every shipped protocol class with a
certified input family — promise, union and optimal-disjointness
included), and a completeness test asserts no ``Protocol`` subclass
exported by ``repro.protocols`` is missing from the registry, so a new
protocol cannot silently dodge these checks.  The mechanical per-board
validation itself is ``repro.core.validate.validate_protocol`` — the
same certifier the fuzz harness (``repro.check``) applies to generated
protocols.
"""

import inspect
import random

import pytest

import repro.protocols as protocols_package
from repro.core import Transcript, run_protocol
from repro.core.model import Protocol
from repro.core.validate import validate_protocol
from repro.protocols import ALL_PROTOCOLS, ProtocolCase

CASE_IDS = [case.name for case in ALL_PROTOCOLS]


@pytest.mark.parametrize("case", ALL_PROTOCOLS, ids=CASE_IDS)
class TestDiscipline:
    def test_validate_protocol_certifies(self, case: ProtocolCase):
        """One mechanical sweep covers prefix-freeness at every reachable
        board, replay consistency of the turn function, and output
        agreement between incremental and replayed states."""
        report = validate_protocol(case.build(), case.input_tuples())
        assert report.ok, report.problems
        assert report.prefix_free_everywhere
        assert report.replay_consistent
        assert report.states_checked > 0

    def test_runner_round_trip(self, case: ProtocolCase):
        """run_protocol executions replay cleanly: the transcript's raw
        bits re-parse into the same messages, state folding reproduces
        the output, and the run halts with a board-determined end."""
        protocol = case.build()
        rng = random.Random(0)
        for raw in case.input_tuples()[:40]:
            run = run_protocol(protocol, raw, rng=rng)
            assert run.bits_communicated == run.transcript.bits_written
            assert run.rounds == len(run.transcript)
            board = Transcript()
            state = protocol.initial_state()
            for message in run.transcript:
                assert protocol.next_speaker(state, board) == message.speaker
                state = protocol.advance_state(state, message)
                board = board.extend(message)
            assert protocol.next_speaker(state, board) is None
            assert protocol.output(state, board) == run.output
            replayed = protocol.replay_state(run.transcript)
            assert protocol.output(replayed, board) == run.output

    def test_turn_function_input_oblivious(self, case: ProtocolCase):
        """All inputs that reach a board agree on who speaks next — the
        replayed state's speaker must match the incremental one at every
        reachable board (validate_protocol records any disagreement)."""
        from repro.core.validate import reachable_boards

        protocol = case.build()
        inputs = case.input_tuples()
        for state, board, speaker, _messages in reachable_boards(
            protocol, inputs
        ):
            assert (
                protocol.next_speaker(protocol.replay_state(board), board)
                == speaker
            )


class TestRegistryCompleteness:
    def test_every_shipped_protocol_class_is_registered(self):
        """A protocol class exported by repro.protocols must appear in
        ALL_PROTOCOLS."""
        exported = {
            obj
            for name in protocols_package.__all__
            for obj in [getattr(protocols_package, name)]
            if inspect.isclass(obj) and issubclass(obj, Protocol)
        }
        registered = {type(case.build()) for case in ALL_PROTOCOLS}
        missing = {cls.__name__ for cls in exported - registered}
        assert not missing, (
            f"protocol classes missing from ALL_PROTOCOLS: {sorted(missing)}"
        )

    def test_names_are_unique(self):
        names = [case.name for case in ALL_PROTOCOLS]
        assert len(names) == len(set(names))

    def test_inputs_are_valid_for_the_protocol(self):
        for case in ALL_PROTOCOLS:
            protocol = case.build()
            for raw in case.input_tuples()[:5]:
                protocol.validate_inputs(raw)

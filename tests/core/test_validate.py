"""Tests for the public protocol-validation API."""

import itertools
import os
import subprocess
import sys

import pytest

from repro.core import (
    ProtocolViolation,
    validate_protocol,
)
from repro.information import DiscreteDistribution
from repro.protocols import (
    ALL_PROTOCOLS,
    FunctionalProtocol,
    NoisySequentialAndProtocol,
    OptimalDisjointnessProtocol,
    SequentialAndProtocol,
    UnionProtocol,
)


def boolean_inputs(k):
    return list(itertools.product((0, 1), repeat=k))


class TestValidateProtocol:
    @pytest.mark.parametrize(
        "protocol,inputs",
        [
            (SequentialAndProtocol(4), boolean_inputs(4)),
            (NoisySequentialAndProtocol(3, 0.2), boolean_inputs(3)),
            (
                OptimalDisjointnessProtocol(3, 2),
                list(itertools.product(range(8), repeat=2)),
            ),
            (
                UnionProtocol(3, 2),
                list(itertools.product(range(8), repeat=2)),
            ),
        ],
    )
    def test_shipped_protocols_validate(self, protocol, inputs):
        report = validate_protocol(protocol, inputs)
        assert report.ok, report.problems
        assert report.states_checked > 0
        assert report.prefix_free_everywhere
        assert report.replay_consistent

    def test_prefix_violation_detected(self):
        """A protocol whose message set is not prefix-free is flagged."""

        def messages(player, player_input, board):
            # Input 0 sends "0", input 1 sends "01": "0" prefixes "01".
            return DiscreteDistribution.point_mass(
                "0" if player_input == 0 else "01"
            )

        bad = FunctionalProtocol(
            1,
            next_speaker=lambda board: 0 if len(board) == 0 else None,
            message_distribution=messages,
            output=lambda board: 0,
        )
        report = validate_protocol(bad, [(0,), (1,)])
        assert not report.ok
        assert not report.prefix_free_everywhere
        assert any("prefix" in p for p in report.problems)

    def test_board_explosion_guard(self):
        protocol = NoisySequentialAndProtocol(4, 0.3)
        with pytest.raises(ProtocolViolation, match="reachable boards"):
            list(
                validate_protocol(
                    protocol, boolean_inputs(4), max_boards=3
                ).problems
            )

    def test_report_statistics(self):
        protocol = SequentialAndProtocol(3)
        report = validate_protocol(protocol, boolean_inputs(3))
        # Reachable non-final boards: "", "1", "11" — 3 states.
        assert report.states_checked == 3
        assert report.max_board_length == 2


# (ok, states_checked, max_board_length) of every registry protocol on its
# certified input family.  The audit must explore exactly these boards.
REGISTRY_PIN = {
    "sequential-and": (True, 4, 3),
    "full-broadcast-and": (True, 7, 2),
    "noisy-sequential-and": (True, 7, 2),
    "trivial-disjointness": (True, 9, 1),
    "naive-disjointness": (True, 9, 1),
    "optimal-disjointness": (True, 8, 1),
    "union": (True, 8, 1),
    "two-party-disjointness": (True, 9, 1),
    "two-party-sparse-intersection": (True, 8, 1),
    "promise-unique-intersection": (True, 29, 3),
    "sequential-composition": (True, 8, 3),
    "functional-random": (True, 511, 8),
}


@pytest.mark.parametrize(
    "case", ALL_PROTOCOLS, ids=[case.name for case in ALL_PROTOCOLS]
)
def test_registry_pin(case):
    report = validate_protocol(case.build(), case.input_tuples())
    assert (
        report.ok,
        report.states_checked,
        report.max_board_length,
    ) == REGISTRY_PIN[case.name], report.problems


_PROBLEMS_SCRIPT = """
from repro.check import mutations
from repro.check.generator import generate_case
from repro.core.validate import validate_protocol

for index in range(10):
    case = generate_case(0, index)
    mutant = mutations.wrap_discipline_bug(case.protocol, "broken-prefix")
    print(repr(validate_protocol(mutant, case.input_tuples).problems))
"""


def test_problem_order_does_not_depend_on_string_hashes():
    # The reachable-board BFS once expanded a set of message strings, so
    # the order of the reported problems followed PYTHONHASHSEED.
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", _PROBLEMS_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert "prefix" in outputs[0]
    assert outputs[0] == outputs[1]

"""Bit-identity pins for the one broadcast engine.

The runner and the exact analyzer serve every medium; on the blackboard
they are pinned here against independent re-derivations:

* over every registry protocol and a fuzz family of generated ones,
  ``run_protocol`` must produce the same transcript, output, and bit
  count as the independent reference runtime
  :func:`repro.check.mutations.topology_run_reference` under the same
  seed (its own inline sampler, so a sampling or rng-stream bug in the
  engine cannot hide);
* the exact per-input transcript law must equal, float for float, an
  independent recursive enumeration, and the information functionals
  must agree exactly between the legacy and vectorized walks.
"""

import random

import pytest

from repro.check.generator import generate_case
from repro.check.mutations import topology_run_reference
from repro.core.analysis import (
    expected_communication,
    external_information_cost,
    transcript_entropy,
)
from repro.core.model import Message, Transcript
from repro.core.runner import run_protocol
from repro.core.tree import transcript_distribution
from repro.information.distribution import DiscreteDistribution
from repro.perf import kernels
from repro.protocols import ALL_PROTOCOLS
from repro.topology import BOARD_LINK, BROADCAST, run_on_medium

#: How many inputs of each registry family the runner pin replays.
INPUT_LIMIT = 24

#: Generated-protocol fuzz family: 25 cases, 3 inputs each.
GENERATED_CASES = 25


def _assert_matches_reference(protocol, inputs, seed):
    run = run_protocol(protocol, inputs, rng=random.Random(seed))
    reference = topology_run_reference(protocol, BROADCAST, inputs, seed)
    rows = tuple((m.speaker, m.link, m.bits) for m in run.transcript)
    assert rows == reference["transcript"]
    assert run.output == reference["output"]
    assert run.bits_communicated == reference["bits_communicated"]
    assert run.bits_by_link == reference["bits_by_link"]


@pytest.mark.parametrize(
    "case", ALL_PROTOCOLS, ids=lambda case: case.name
)
def test_registry_protocols_bit_identical(case):
    protocol = case.build()
    family = case.input_tuples()
    inputs_list = family[:INPUT_LIMIT]
    if family[-1] not in inputs_list:
        inputs_list.append(family[-1])
    for seed, inputs in enumerate(inputs_list):
        _assert_matches_reference(protocol, inputs, seed)


@pytest.mark.parametrize("index", range(GENERATED_CASES))
def test_generated_protocols_bit_identical(index):
    case = generate_case(0, index)
    for seed, inputs in enumerate(sorted(case.input_dist.support())[:3]):
        _assert_matches_reference(case.protocol, inputs, 100 + seed)


def _reference_law(protocol, inputs):
    """Recursive enumeration of the transcript law, visiting children
    last-first — the leaf order of the engine's LIFO walk, so even the
    normalization sum is folded in the same order."""
    leaves = {}

    def visit(state, board, prob):
        speaker = protocol.next_speaker(state, board)
        if speaker is None:
            leaves[board] = leaves.get(board, 0.0) + prob
            return
        dist = protocol.message_distribution(
            state, speaker, inputs[speaker], board
        )
        for bits, p in reversed([(b, p) for b, p in dist.items() if p > 0]):
            message = Message(speaker, bits)
            visit(
                protocol.advance_state(state, message),
                board.extend(message),
                prob * p,
            )

    visit(protocol.initial_state(), Transcript(), 1.0)
    return DiscreteDistribution(leaves, normalize=True)


def _both_kernels(compute):
    with kernels.using_kernel("legacy"):
        legacy = compute()
    with kernels.using_kernel("vectorized"):
        vectorized = compute()
    return legacy, vectorized


class TestAnalyzerIdentity:
    """Exact analyzer values, compared with ``==`` on floats."""

    def _cases(self):
        for case in ALL_PROTOCOLS:
            if case.name in (
                "sequential-and",
                "noisy-sequential-and",
                "trivial-disjointness",
            ):
                yield case

    def test_transcript_law_identical(self):
        for case in self._cases():
            protocol = case.build()
            for inputs in case.input_tuples()[:6]:
                law = transcript_distribution(protocol, inputs)
                reference = _reference_law(protocol, inputs)
                assert list(law.items()) == list(reference.items())

    def test_information_costs_identical(self):
        for case in self._cases():
            protocol = case.build()
            dist = DiscreteDistribution.uniform(case.input_tuples())
            for functional in (
                external_information_cost,
                transcript_entropy,
                expected_communication,
            ):
                legacy, vectorized = _both_kernels(
                    lambda: functional(protocol, dist, medium=BROADCAST)
                )
                assert legacy == vectorized

    def test_generated_protocol_law_identical(self):
        case = generate_case(0, 3)
        legacy, vectorized = _both_kernels(
            lambda: external_information_cost(case.protocol, case.input_dist)
        )
        assert legacy == vectorized


def test_legacy_runner_medium_kwarg_routes():
    """``medium=BROADCAST`` is the default, and ``run_on_medium`` is the
    same engine with the medium passed positionally."""
    case = ALL_PROTOCOLS[0]
    protocol = case.build()
    inputs = case.input_tuples()[0]
    default = run_protocol(protocol, inputs, rng=random.Random(5))
    explicit = run_protocol(
        protocol, inputs, rng=random.Random(5), medium=BROADCAST
    )
    routed = run_on_medium(protocol, BROADCAST, inputs, rng=random.Random(5))
    assert explicit == default == routed
    assert default.bits_by_link == {BOARD_LINK: default.bits_communicated}

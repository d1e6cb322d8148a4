"""Tests for the exact protocol-tree analyzer."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    joint_transcript_distribution,
    run_protocol,
    transcript_distribution,
)
from repro.core.model import ProtocolViolation
from repro.information import DiscreteDistribution
from repro.protocols import (
    FunctionalProtocol,
    NoisySequentialAndProtocol,
    SequentialAndProtocol,
    random_boolean_protocol,
)


class TestTranscriptDistribution:
    def test_deterministic_protocol_point_mass(self):
        p = SequentialAndProtocol(3)
        dist = transcript_distribution(p, (1, 0, 1))
        assert len(dist) == 1
        (transcript,) = dist.support()
        assert transcript.bit_string() == "10"

    def test_randomized_protocol_probabilities(self):
        p = NoisySequentialAndProtocol(2, 0.25)
        dist = transcript_distribution(p, (1, 1))
        # Both players write Bernoulli(0.75) ones independently.
        by_bits = {t.bit_string(): prob for t, prob in dist.items()}
        assert by_bits["11"] == pytest.approx(0.75 * 0.75)
        assert by_bits["00"] == pytest.approx(0.25 * 0.25)
        assert sum(by_bits.values()) == pytest.approx(1.0)

    def test_matches_monte_carlo(self):
        p = NoisySequentialAndProtocol(3, 0.2)
        inputs = (1, 0, 1)
        dist = transcript_distribution(p, inputs)
        rng = random.Random(0)
        counts = {}
        trials = 4000
        for _ in range(trials):
            run = run_protocol(p, inputs, rng=rng)
            key = run.transcript
            counts[key] = counts.get(key, 0) + 1
        for transcript, prob in dist.items():
            empirical = counts.get(transcript, 0) / trials
            assert abs(empirical - prob) < 0.05

    def test_non_halting_detected(self):
        class NeverHalts(FunctionalProtocol):
            max_messages = 50

        p = NeverHalts(
            1,
            next_speaker=lambda board: 0,
            message_distribution=lambda pl, x, b: (
                DiscreteDistribution.point_mass("0")
            ),
            output=lambda board: None,
        )
        with pytest.raises(ProtocolViolation):
            transcript_distribution(p, (0,))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_random_protocol_mass_sums_to_one(self, seed):
        rng = random.Random(seed)
        p = random_boolean_protocol(3, rng, rounds=2)
        for inputs in itertools.product((0, 1), repeat=3):
            dist = transcript_distribution(p, inputs)
            assert math.isclose(
                sum(prob for _, prob in dist.items()), 1.0, abs_tol=1e-9
            )


class TestJointTranscriptDistribution:
    def test_named_components(self):
        p = SequentialAndProtocol(2)
        scenarios = DiscreteDistribution.uniform(
            [((0, 1),), ((1, 1),), ((1, 0),), ((0, 0),)]
        )
        joint = joint_transcript_distribution(p, scenarios, names=("inputs",))
        assert joint.names == ("inputs", "transcript")
        # Transcript "0" arises from inputs starting with 0.
        t_marginal = joint.marginal("transcript")
        by_bits = {t.bit_string(): prob for t, prob in t_marginal.items()}
        assert by_bits["0"] == pytest.approx(0.5)
        assert by_bits["10"] == pytest.approx(0.25)
        assert by_bits["11"] == pytest.approx(0.25)

    def test_aux_component_passthrough(self):
        p = SequentialAndProtocol(2)
        scenarios = DiscreteDistribution.uniform(
            [((0, 1), "d0"), ((1, 1), "d1")]
        )
        joint = joint_transcript_distribution(
            p, scenarios, names=("inputs", "aux")
        )
        assert joint.names == ("inputs", "aux", "transcript")
        assert joint.marginal("aux")["d0"] == pytest.approx(0.5)

    def test_non_tuple_scenarios_rejected(self):
        p = SequentialAndProtocol(2)
        scenarios = DiscreteDistribution.uniform(["bad"])
        with pytest.raises(TypeError):
            joint_transcript_distribution(p, scenarios)

    def test_scenario_cache_consistency(self):
        """Scenarios sharing an input tuple (different aux) must get the
        same conditional transcript law."""
        p = NoisySequentialAndProtocol(2, 0.3)
        scenarios = DiscreteDistribution.uniform(
            [((1, 1), 0), ((1, 1), 1)]
        )
        joint = joint_transcript_distribution(
            p, scenarios, names=("inputs", "aux")
        )
        for_aux0 = joint.conditional("transcript", "aux", 0)
        for_aux1 = joint.conditional("transcript", "aux", 1)
        assert for_aux0.is_close(for_aux1, tolerance=1e-9)

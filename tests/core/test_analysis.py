"""Tests for the exact information-cost / error / communication analysis
(Definitions 5–6 and the surrounding identities)."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    and_task,
    conditional_information_cost,
    distributional_error,
    expected_communication,
    external_information_cost,
    internal_information_cost,
    transcript_entropy,
    transcript_joint,
    worst_case_communication,
    worst_case_error,
)
from repro.information import DiscreteDistribution
from repro.lowerbounds import and_hard_distribution
from repro.protocols import (
    FullBroadcastAndProtocol,
    NoisySequentialAndProtocol,
    SequentialAndProtocol,
    random_boolean_protocol,
)


def uniform_bits(k):
    return DiscreteDistribution.uniform(
        list(itertools.product((0, 1), repeat=k))
    )


class TestExternalInformationCost:
    def test_full_broadcast_reveals_everything(self):
        """The broadcast-everything protocol's IC equals H(X)."""
        k = 3
        p = FullBroadcastAndProtocol(k)
        mu = uniform_bits(k)
        assert external_information_cost(p, mu) == pytest.approx(float(k))

    def test_sequential_and_reveals_less(self):
        for k in (5, 8):
            mu = uniform_bits(k)
            seq = external_information_cost(SequentialAndProtocol(k), mu)
            full = external_information_cost(FullBroadcastAndProtocol(k), mu)
            assert 1.0 < seq < full, k

    def test_constant_protocol_reveals_nothing(self):
        """A protocol whose messages ignore the input has zero IC."""
        from repro.protocols import FunctionalProtocol

        p = FunctionalProtocol(
            2,
            next_speaker=lambda board: 0 if len(board) == 0 else None,
            message_distribution=lambda pl, x, b: (
                DiscreteDistribution({"0": 0.5, "1": 0.5})
            ),
            output=lambda board: 0,
        )
        assert external_information_cost(p, uniform_bits(2)) == pytest.approx(
            0.0, abs=1e-9
        )

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_ic_at_most_entropy_at_most_length(self, seed):
        """The chain IC <= H(Π) <= |Π| stated after Definition 5."""
        rng = random.Random(seed)
        p = random_boolean_protocol(2, rng, rounds=2)
        mu = uniform_bits(2)
        ic = external_information_cost(p, mu)
        h = transcript_entropy(p, mu)
        worst_len = worst_case_communication(
            p, list(itertools.product((0, 1), repeat=2))
        )
        assert ic <= h + 1e-9
        assert h <= worst_len + 1e-9

    def test_sequential_and_entropy_bound(self):
        """H(Π) <= log2(k + 1) for the Section 6 protocol, any μ."""
        for k in (2, 4, 7):
            p = SequentialAndProtocol(k)
            for mu in (
                uniform_bits(k),
                and_hard_distribution(k).map(lambda o: o[0]),
            ):
                assert transcript_entropy(p, mu) <= math.log2(k + 1) + 1e-9


class TestConditionalInformationCost:
    def test_conditioning_on_constant_equals_plain_ic(self):
        k = 3
        p = SequentialAndProtocol(k)
        mu_inputs = uniform_bits(k)
        mu_with_dummy_aux = mu_inputs.map(lambda x: (x, "const"))
        cic = conditional_information_cost(p, mu_with_dummy_aux)
        ic = external_information_cost(p, mu_inputs)
        assert cic == pytest.approx(ic, abs=1e-9)

    def test_cic_bounded_by_conditional_entropy(self):
        """CIC(Π) <= H(X | Z), the constraint that shaped the hard
        distribution's design (Section 4.1)."""
        from repro.information import conditional_entropy, JointDistribution

        k = 4
        mu = and_hard_distribution(k)
        p = SequentialAndProtocol(k)
        cic = conditional_information_cost(p, mu)
        joint = JointDistribution(
            {pair: prob for pair, prob in mu.items()}, names=["x", "z"]
        )
        assert cic <= conditional_entropy(joint, "x", "z") + 1e-9

    def test_invalid_mu_shape_rejected(self):
        p = SequentialAndProtocol(2)
        bad = DiscreteDistribution.uniform([((0, 1), "d", "extra")])
        with pytest.raises(TypeError):
            conditional_information_cost(p, bad)


class TestInternalInformationCost:
    def test_two_player_only(self):
        p = SequentialAndProtocol(3)
        with pytest.raises(ValueError):
            internal_information_cost(p, uniform_bits(3))

    def test_internal_at_most_external_for_product(self):
        """For product input distributions, internal <= external."""
        p = NoisySequentialAndProtocol(2, 0.2)
        mu = uniform_bits(2)
        internal = internal_information_cost(p, mu)
        external = external_information_cost(p, mu)
        assert internal <= external + 1e-9

    def test_full_broadcast_internal_equals_external_uniform(self):
        """When the transcript equals the input and inputs are independent
        bits, each player learns exactly the other's bit."""
        p = FullBroadcastAndProtocol(2)
        mu = uniform_bits(2)
        assert internal_information_cost(p, mu) == pytest.approx(2.0)
        assert external_information_cost(p, mu) == pytest.approx(2.0)


class TestErrorAnalysis:
    def test_exact_protocol_zero_error(self):
        k = 4
        assert worst_case_error(SequentialAndProtocol(k), and_task(k)) == 0.0

    def test_noisy_protocol_error_exact(self):
        p = NoisySequentialAndProtocol(2, 0.25)
        # On (1, 1): errs iff some written bit is 0: 1 - 0.75^2.
        error = distributional_error(
            p,
            DiscreteDistribution.point_mass((1, 1)),
            lambda x: int(all(x)),
        )
        assert error == pytest.approx(1 - 0.75**2)

    def test_worst_case_error_over_domain(self):
        p = NoisySequentialAndProtocol(2, 0.25)
        worst = worst_case_error(p, and_task(2))
        # Worst input is (1, 1): flipping any bit flips the AND.
        assert worst == pytest.approx(1 - 0.75**2)

    def test_distributional_error_weights_inputs(self):
        p = NoisySequentialAndProtocol(2, 0.25)
        # On (0, 0): output 1 only if both flip: 0.25^2; error = 0.0625.
        mu = DiscreteDistribution(
            {(1, 1): 0.5, (0, 0): 0.5}
        )
        error = distributional_error(p, mu, lambda x: int(all(x)))
        expected = 0.5 * (1 - 0.75**2) + 0.5 * (0.25**2)
        assert error == pytest.approx(expected)


class TestCommunicationAnalysis:
    def test_expected_communication_sequential_and(self):
        k = 3
        p = SequentialAndProtocol(k)
        mu = uniform_bits(k)
        # Bits spoken = index of first zero + 1, or k if no zero:
        # E = sum_{j=1..k} j * 2^{-j} + k * 2^{-k}.
        expected = sum(j * 2.0**-j for j in range(1, k + 1)) + k * 2.0**-k
        assert expected_communication(p, mu) == pytest.approx(expected)

    def test_worst_case_communication(self):
        k = 6
        p = SequentialAndProtocol(k)
        inputs = list(itertools.product((0, 1), repeat=k))
        assert worst_case_communication(p, inputs) == k

    def test_transcript_joint_names(self):
        p = SequentialAndProtocol(2)
        joint = transcript_joint(p, uniform_bits(2))
        assert joint.names == ("inputs", "transcript")


class TestInternalVsExternalProperty:
    """For two players, internal <= external information cost holds for
    every protocol and every input distribution (the classical relation
    the Section 6 discussion assumes) — property-tested over random
    protocols and random (possibly correlated) input distributions."""

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10_000), st.data())
    def test_internal_at_most_external(self, seed, data):
        rng = random.Random(seed)
        protocol = random_boolean_protocol(2, rng, rounds=2)
        weights = {
            pair: data.draw(
                st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)
            )
            for pair in itertools.product((0, 1), repeat=2)
        }
        mu = DiscreteDistribution(weights, normalize=True)
        internal = internal_information_cost(protocol, mu)
        external = external_information_cost(protocol, mu)
        assert internal <= external + 1e-8

"""Tests for the AND protocols of Sections 4 and 6."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Transcript,
    and_task,
    run_protocol,
    transcript_distribution,
    transcript_entropy,
    worst_case_communication,
    worst_case_error,
)
from repro.information import DiscreteDistribution
from repro.protocols import (
    FullBroadcastAndProtocol,
    NoisySequentialAndProtocol,
    SequentialAndProtocol,
)


class TestSequentialAnd:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_exhaustive_correctness(self, k):
        p = SequentialAndProtocol(k)
        task = and_task(k)
        for x in itertools.product((0, 1), repeat=k):
            assert run_protocol(p, x).output == task.evaluate(x)

    def test_halts_at_first_zero(self):
        p = SequentialAndProtocol(6)
        run = run_protocol(p, (1, 1, 0, 1, 0, 1))
        assert run.rounds == 3
        assert run.transcript.speakers() == [0, 1, 2]

    def test_worst_case_communication_is_k(self):
        k = 9
        p = SequentialAndProtocol(k)
        inputs = list(itertools.product((0, 1), repeat=k))
        # Too many inputs to enumerate transcripts quickly; worst case is
        # all-ones which makes everyone speak.
        assert run_protocol(p, tuple([1] * k)).bits_communicated == k
        assert worst_case_communication(p, [tuple([1] * k)]) == k

    def test_transcript_count_is_k_plus_1(self):
        """Reachable transcripts: 1^j 0 for j < k, and 1^k — the counting
        argument behind H(Π) <= log2(k + 1)."""
        k = 6
        p = SequentialAndProtocol(k)
        transcripts = set()
        for x in itertools.product((0, 1), repeat=k):
            transcripts.update(transcript_distribution(p, x).support())
        assert len(transcripts) == k + 1

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_entropy_bound_any_distribution(self, k):
        """H(Π) <= log2(k + 1) under a random distribution (Section 6)."""
        rng = random.Random(k)
        weights = {
            x: rng.random() + 1e-3
            for x in itertools.product((0, 1), repeat=k)
        }
        mu = DiscreteDistribution(weights, normalize=True)
        p = SequentialAndProtocol(k)
        assert transcript_entropy(p, mu) <= math.log2(k + 1) + 1e-9

    def test_invalid_input_bit(self):
        p = SequentialAndProtocol(2)
        with pytest.raises(ValueError):
            run_protocol(p, (2, 1))


class TestFullBroadcastAnd:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_correctness(self, k):
        p = FullBroadcastAndProtocol(k)
        task = and_task(k)
        for x in itertools.product((0, 1), repeat=k):
            run = run_protocol(p, x)
            assert run.output == task.evaluate(x)
            assert run.bits_communicated == k  # everyone always speaks

    def test_transcript_equals_input(self):
        p = FullBroadcastAndProtocol(4)
        run = run_protocol(p, (1, 0, 1, 1))
        assert run.transcript.bit_string() == "1011"


class TestNoisySequentialAnd:
    def test_flip_prob_validated(self):
        with pytest.raises(ValueError):
            NoisySequentialAndProtocol(3, 0.5)
        with pytest.raises(ValueError):
            NoisySequentialAndProtocol(3, -0.1)

    def test_zero_noise_is_exact(self):
        p = NoisySequentialAndProtocol(4, 0.0)
        assert worst_case_error(p, and_task(4)) == 0.0

    def test_error_formula_on_all_ones(self):
        k, eps = 5, 0.2
        p = NoisySequentialAndProtocol(k, eps)
        dist = transcript_distribution(p, tuple([1] * k))
        wrong = sum(
            prob for t, prob in dist.items() if "0" in t.bit_string()
        )
        assert wrong == pytest.approx(1 - (1 - eps) ** k)

    @settings(deadline=None, max_examples=20)
    @given(
        st.integers(2, 5),
        st.floats(min_value=0.01, max_value=0.4),
    )
    def test_message_distribution_depends_on_input(self, k, eps):
        p = NoisySequentialAndProtocol(k, eps)
        state = p.initial_state()
        from repro.core import Transcript

        board = Transcript()
        d1 = p.message_distribution(state, 0, 1, board)
        d0 = p.message_distribution(state, 0, 0, board)
        assert d1["1"] == pytest.approx(1 - eps)
        assert d0["1"] == pytest.approx(eps)

    def test_always_k_rounds(self):
        p = NoisySequentialAndProtocol(4, 0.3)
        run = run_protocol(p, (0, 0, 0, 0), rng=random.Random(0))
        assert run.rounds == 4


class TestBitLaws:
    """The deterministic AND protocols' message laws, hook by hook."""

    @pytest.mark.parametrize(
        "build", [SequentialAndProtocol, FullBroadcastAndProtocol]
    )
    @pytest.mark.parametrize("bad", [2, -1, "7"])
    def test_non_bit_input_raises(self, build, bad):
        p = build(3)
        with pytest.raises(ValueError) as info:
            p.message_distribution(p.initial_state(), 0, bad, Transcript())
        assert str(info.value) == f"AND inputs must be bits, got {bad!r}"

    @pytest.mark.parametrize(
        "build", [SequentialAndProtocol, FullBroadcastAndProtocol]
    )
    @pytest.mark.parametrize("bit, word", [(0, "0"), (1, "1"), (True, "1")])
    def test_point_mass_on_the_bit(self, build, bit, word):
        p = build(3)
        dist = p.message_distribution(p.initial_state(), 0, bit, Transcript())
        assert list(dist.items()) == [(word, 1.0)]

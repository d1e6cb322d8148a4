"""Tests for the Lemma 3 product decomposition — including the
property-based check that it holds for *arbitrary* random protocols."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Message, Transcript, transcript_distribution
from repro.lowerbounds import transcript_factors
from repro.protocols import (
    NoisySequentialAndProtocol,
    SequentialAndProtocol,
    random_boolean_protocol,
)

BOOL_VALUES = [[0, 1], [0, 1], [0, 1]]


class TestLemma3ProductIdentity:
    def test_deterministic_protocol(self):
        k = 4
        p = SequentialAndProtocol(k)
        transcript = transcript_distribution(p, (1, 1, 0, 1)).support()[0]
        factors = transcript_factors(p, transcript, [[0, 1]] * k)
        # q_{i,b} in {0,1} for deterministic protocols.
        for i, table in enumerate(factors.factors):
            for b, q in table.items():
                assert q in (0.0, 1.0)
        assert factors.probability((1, 1, 0, 1)) == 1.0
        assert factors.probability((1, 1, 1, 1)) == 0.0

    def test_noisy_protocol_exact_probabilities(self):
        k = 3
        eps = 0.2
        p = NoisySequentialAndProtocol(k, eps)
        for inputs in itertools.product((0, 1), repeat=k):
            dist = transcript_distribution(p, inputs)
            for transcript, prob in dist.items():
                factors = transcript_factors(p, transcript, BOOL_VALUES)
                assert factors.probability(inputs) == pytest.approx(
                    prob, abs=1e-12
                )

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 100_000))
    def test_random_protocols(self, seed):
        """Lemma 3 must hold for every protocol; check a random one."""
        rng = random.Random(seed)
        k = rng.choice([2, 3])
        p = random_boolean_protocol(k, rng, rounds=2)
        values = [[0, 1]] * k
        for inputs in itertools.product((0, 1), repeat=k):
            dist = transcript_distribution(p, inputs)
            for transcript, prob in dist.items():
                factors = transcript_factors(p, transcript, values)
                assert factors.probability(inputs) == pytest.approx(
                    prob, abs=1e-9
                )

    def test_partial_transcript_factors(self):
        """Factors multiply message by message, so a prefix's factors are
        prefixes of the full product (the paper's induction)."""
        k = 3
        p = NoisySequentialAndProtocol(k, 0.25)
        full = transcript_distribution(p, (1, 1, 1)).support()[0]
        prefix = Transcript(list(full)[:2])
        f_full = transcript_factors(p, full, BOOL_VALUES)
        f_prefix = transcript_factors(p, prefix, BOOL_VALUES)
        # Player 2 has not spoken in the prefix: factor 1 for both inputs.
        assert f_prefix.factors[2][0] == 1.0
        assert f_prefix.factors[2][1] == 1.0
        # Players 0, 1 have spoken once in both: factors agree.
        for i in (0, 1):
            for b in (0, 1):
                assert f_prefix.factors[i][b] == pytest.approx(
                    f_full.factors[i][b]
                )

    def test_inconsistent_speaker_rejected(self):
        p = SequentialAndProtocol(3)
        bogus = Transcript([Message(2, "1")])  # player 0 must speak first
        with pytest.raises(ValueError, match="turn function"):
            transcript_factors(p, bogus, BOOL_VALUES)

    def test_wrong_value_list_count(self):
        p = SequentialAndProtocol(3)
        t = transcript_distribution(p, (1, 1, 1)).support()[0]
        with pytest.raises(ValueError):
            transcript_factors(p, t, [[0, 1]] * 2)


class TestAlphaCoefficients:
    def test_finite_ratio(self):
        k = 3
        p = NoisySequentialAndProtocol(k, 0.25)
        t = transcript_distribution(p, (1, 1, 1)).support()[0]
        factors = transcript_factors(p, t, BOOL_VALUES)
        alphas = [factors.alpha(player) for player in range(k)]
        for i, alpha in enumerate(alphas):
            q0 = factors.factors[i][0]
            q1 = factors.factors[i][1]
            assert alpha == pytest.approx(q0 / q1)

    def test_infinite_alpha_when_q1_zero(self):
        """Deterministic protocols: a player that wrote 0 has q_{i,1} = 0
        and alpha = inf (posterior of zero = 1, Lemma 4's edge case)."""
        k = 3
        p = SequentialAndProtocol(k)
        t = transcript_distribution(p, (1, 0, 1)).support()[0]
        factors = transcript_factors(p, t, BOOL_VALUES)
        assert factors.alpha(1) == math.inf

    def test_nan_alpha_for_impossible_player(self):
        """If neither input value lets the player produce its messages,
        alpha is NaN."""
        k = 2
        p = SequentialAndProtocol(k)
        # Transcript where player 0 writes "1" then halts — impossible
        # continuation fabricated by hand: player 0 writes "0" after "1".
        t = Transcript([Message(0, "1"), Message(1, "0")])
        factors = transcript_factors(p, t, [[0, 1], [0, 1]])
        # Player 1 wrote 0: q_{1,1} = 0, q_{1,0} = 1 -> inf (not nan).
        assert factors.alpha(1) == math.inf
        # Fabricate a transcript impossible for player 0 under both values:
        # it can't be done with this protocol (messages are the inputs), so
        # check the NaN branch directly on the dataclass.
        from repro.lowerbounds import TranscriptFactors

        fake = TranscriptFactors(
            transcript=t, factors=({0: 0.0, 1: 0.0}, {0: 1.0, 1: 1.0})
        )
        assert math.isnan(fake.alpha(0))

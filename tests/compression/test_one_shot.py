"""Tests for one-shot protocol compression and the observer posterior."""

import itertools
import math
import random
from collections import Counter

import pytest

from repro.compression import (
    ObserverPosterior,
    compress_execution,
)
from repro.core import (
    ProtocolViolation,
    Transcript,
    external_information_cost,
    run_protocol,
    transcript_distribution,
)
from repro.information import DiscreteDistribution
from repro.lowerbounds import and_hard_input_marginal
from repro.protocols import (
    FullBroadcastAndProtocol,
    NoisySequentialAndProtocol,
    SequentialAndProtocol,
)


def uniform_bits(k):
    return DiscreteDistribution.uniform(
        list(itertools.product((0, 1), repeat=k))
    )


class TestObserverPosterior:
    def test_prior_is_input_distribution(self):
        p = SequentialAndProtocol(2)
        mu = uniform_bits(2)
        posterior = ObserverPosterior(p, mu)
        assert posterior.distribution().is_close(mu)

    def test_update_after_observed_one(self):
        """Seeing player 0 write '1' (deterministic protocol) eliminates
        inputs where X_0 = 0."""
        p = SequentialAndProtocol(2)
        mu = uniform_bits(2)
        posterior = ObserverPosterior(p, mu)
        posterior.observe(p.initial_state(), 0, Transcript(), "1")
        updated = posterior.distribution()
        assert updated.probability(lambda x: x[0] == 1) == pytest.approx(1.0)

    def test_predictive_is_bayes_mixture(self):
        k, eps = 2, 0.25
        p = NoisySequentialAndProtocol(k, eps)
        mu = DiscreteDistribution({(1, 1): 0.5, (0, 1): 0.5})
        posterior = ObserverPosterior(p, mu)
        nu = posterior.predictive(p.initial_state(), 0, Transcript())
        # Pr["1"] = 0.5 * (1 - eps) + 0.5 * eps = 0.5.
        assert nu["1"] == pytest.approx(0.5)

    def test_impossible_observation_rejected(self):
        p = SequentialAndProtocol(2)
        mu = DiscreteDistribution.point_mass((1, 1))
        posterior = ObserverPosterior(p, mu)
        with pytest.raises(ValueError, match="zero probability"):
            posterior.observe(p.initial_state(), 0, Transcript(), "0")

    def test_posterior_matches_exact_conditional(self):
        """Bayes filter vs the exact joint law from the protocol tree."""
        from repro.core import transcript_joint

        k, eps = 3, 0.2
        p = NoisySequentialAndProtocol(k, eps)
        mu = and_hard_input_marginal(k)
        joint = transcript_joint(p, mu)
        rng = random.Random(0)
        inputs = mu.sample(rng)
        run = run_protocol(p, inputs, rng=rng)
        posterior = ObserverPosterior(p, mu)
        state = p.initial_state()
        board = Transcript()
        for message in run.transcript:
            posterior.observe(state, message.speaker, board, message.bits)
            state = p.advance_state(state, message)
            board = board.extend(message)
        exact = joint.conditional("inputs", "transcript", run.transcript)
        assert posterior.distribution().is_close(exact, tolerance=1e-9)


class TestCompressExecution:
    def test_transcript_distribution_preserved(self):
        """The compressed execution samples transcripts from exactly the
        original protocol's law (the Lemma 7 sampler is exact)."""
        k, eps = 2, 0.3
        p = NoisySequentialAndProtocol(k, eps)
        mu = DiscreteDistribution.point_mass((1, 1))
        true = transcript_distribution(p, (1, 1))
        rng = random.Random(1)
        trials = 4000
        counts = Counter(
            compress_execution(p, mu, (1, 1), rng).transcript
            for _ in range(trials)
        )
        for transcript, prob in true.items():
            assert counts[transcript] / trials == pytest.approx(
                prob, abs=0.03
            )

    def test_outputs_match_protocol_semantics(self):
        k = 4
        p = SequentialAndProtocol(k)
        mu = uniform_bits(k)
        rng = random.Random(2)
        for inputs in itertools.product((0, 1), repeat=k):
            ce = compress_execution(p, mu, inputs, rng)
            assert ce.output == int(all(inputs))

    def test_divergence_expectation_equals_ic(self):
        """E[sum of round divergences] = IC(Π) — the chain-rule identity
        of Section 6, validated by Monte Carlo."""
        k, eps = 3, 0.2
        p = NoisySequentialAndProtocol(k, eps)
        mu = and_hard_input_marginal(k)
        ic = external_information_cost(p, mu)
        rng = random.Random(3)
        trials = 1500
        total = 0.0
        for _ in range(trials):
            inputs = mu.sample(rng)
            total += compress_execution(p, mu, inputs, rng).total_divergence
        assert total / trials == pytest.approx(ic, abs=0.12)

    def test_deterministic_protocol_round_divergences(self):
        k = 3
        p = SequentialAndProtocol(k)
        mu = uniform_bits(k)
        execution = compress_execution(p, mu, (1, 1, 1), random.Random(0))
        divergences = [r.divergence for r in execution.rounds]
        # Each player's bit is uniform given history: D = 1 bit per round.
        assert divergences == pytest.approx([1.0, 1.0, 1.0])

    def test_inputs_outside_support_rejected(self):
        p = SequentialAndProtocol(2)
        mu = DiscreteDistribution.point_mass((1, 1))
        with pytest.raises(ValueError, match="support"):
            compress_execution(p, mu, (0, 1), random.Random(0))

    def test_run_past_the_declared_bound_is_a_protocol_violation(self):
        """As in every engine: a run may write exactly the protocol's
        ``max_messages``, and one more raises ``ProtocolViolation``
        (a ``RuntimeError``, so older ``except RuntimeError`` callers
        still catch it)."""

        class OverBudgetAnd(FullBroadcastAndProtocol):
            max_messages = 2

        mu = uniform_bits(3)
        with pytest.raises(
            ProtocolViolation, match="did not halt within 2 messages"
        ):
            compress_execution(OverBudgetAnd(3), mu, (1, 1, 1),
                               random.Random(0))
        assert issubclass(ProtocolViolation, RuntimeError)
        exact = compress_execution(
            FullBroadcastAndProtocol(3), mu, (1, 1, 1), random.Random(0)
        )
        assert len(exact.transcript) == FullBroadcastAndProtocol(3).max_messages

    def test_sum_of_round_divergences_equals_ic_exactly(self):
        """For a deterministic protocol, averaging the per-round
        divergences over the input distribution gives IC(Π) exactly."""
        k = 3
        p = SequentialAndProtocol(k)
        mu = and_hard_input_marginal(k)
        ic = external_information_cost(p, mu)
        weighted = sum(
            prob
            * compress_execution(p, mu, inputs, random.Random(0))
            .total_divergence
            for inputs, prob in mu.items()
        )
        assert weighted == pytest.approx(ic, abs=1e-9)

    def test_full_broadcast_compression_cost_tracks_entropy(self):
        """Compressing the broadcast-everything protocol costs about
        H(X) + per-round overhead."""
        k = 3
        p = FullBroadcastAndProtocol(k)
        mu = uniform_bits(k)
        rng = random.Random(4)
        trials = 600
        total_bits = 0
        for _ in range(trials):
            inputs = mu.sample(rng)
            total_bits += compress_execution(p, mu, inputs, rng).compressed_bits
        mean = total_bits / trials
        ic = external_information_cost(p, mu)  # = k bits
        assert mean >= ic - 0.5
        assert mean <= ic + 8.0 * k  # O(1) overhead per round

"""Property-based tests tying the compression pipeline to the exact
analysis, over randomly generated protocols.

The paper's Section 6 rests on two facts that must hold for *every*
protocol: the observer's Bayesian filter computes the true posterior, and
the sum of per-round divergences is the information cost (chain rule).
We check both against protocols drawn at random, which is far stronger
evidence than fixed examples.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import ObserverPosterior
from repro.compression.one_shot import compress_execution
from repro.core import (
    Transcript,
    external_information_cost,
    run_protocol,
    transcript_joint,
)
from repro.information import DiscreteDistribution, kl_divergence
from repro.protocols import random_boolean_protocol


def uniform_bits(k):
    return DiscreteDistribution.uniform(
        list(itertools.product((0, 1), repeat=k))
    )


class TestObserverFilterProperty:
    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10_000))
    def test_filter_equals_exact_conditional(self, seed):
        """After any realized prefix, the filter's posterior equals the
        exact conditional law of the inputs given the transcript."""
        rng = random.Random(seed)
        k = rng.choice([2, 3])
        protocol = random_boolean_protocol(k, rng, rounds=2)
        mu = uniform_bits(k)
        joint = transcript_joint(protocol, mu)
        run_rng = random.Random(seed + 1)
        inputs = mu.sample(run_rng)
        execution = run_protocol(protocol, inputs, rng=run_rng)

        posterior = ObserverPosterior(protocol, mu)
        state = protocol.initial_state()
        board = Transcript()
        for message in execution.transcript:
            posterior.observe(state, message.speaker, board, message.bits)
            state = protocol.advance_state(state, message)
            board = board.extend(message)
        exact = joint.conditional("inputs", "transcript", execution.transcript)
        assert posterior.distribution().is_close(exact, tolerance=1e-9)

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10_000))
    def test_predictive_matches_exact_next_message_law(self, seed):
        """The observer's predictive ν equals the exact conditional law
        of the next message given the board (over inputs and coins)."""
        rng = random.Random(seed)
        k = 2
        protocol = random_boolean_protocol(k, rng, rounds=2)
        mu = uniform_bits(k)
        run_rng = random.Random(seed + 1)
        inputs = mu.sample(run_rng)
        execution = run_protocol(protocol, inputs, rng=run_rng)
        if len(execution.transcript) < 2:
            return

        # Check the prediction for the second message given the first.
        first = execution.transcript[0]
        posterior = ObserverPosterior(protocol, mu)
        state0 = protocol.initial_state()
        posterior.observe(state0, first.speaker, Transcript(), first.bits)
        state1 = protocol.advance_state(state0, first)
        board1 = Transcript([first])
        speaker1 = protocol.next_speaker(state1, board1)
        nu = posterior.predictive(state1, speaker1, board1)

        # Exact: over all inputs and coins, law of message 2 given
        # message 1 equals `first`.
        weights = {}
        for x, p_x in mu.items():
            d1 = protocol.message_distribution(
                state0, first.speaker, x[first.speaker], Transcript()
            )
            p_first = d1[first.bits]
            if p_first <= 0:
                continue
            d2 = protocol.message_distribution(
                state1, speaker1, x[speaker1], board1
            )
            for bits, p2 in d2.items():
                weights[bits] = weights.get(bits, 0.0) + p_x * p_first * p2
        exact = DiscreteDistribution(weights, normalize=True)
        assert nu.is_close(exact, tolerance=1e-9)


class TestChainRuleProperty:
    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 10_000))
    def test_expected_divergence_sum_equals_ic(self, seed):
        """E[Σ_j D(η_j ‖ ν_j)] = IC(Π): computed exactly by enumerating
        inputs, transcripts, and per-round divergences of a random
        protocol."""
        rng = random.Random(seed)
        k = 2
        protocol = random_boolean_protocol(k, rng, rounds=2)
        mu = uniform_bits(k)
        ic = external_information_cost(protocol, mu)

        # Exact expectation: for every input and every realized
        # transcript, accumulate the divergences along the path.
        from repro.core import transcript_distribution

        total = 0.0
        for inputs, p_inputs in mu.items():
            for transcript, p_t in transcript_distribution(
                protocol, inputs
            ).items():
                posterior = ObserverPosterior(protocol, mu)
                state = protocol.initial_state()
                board = Transcript()
                path_divergence = 0.0
                for message in transcript:
                    eta = protocol.message_distribution(
                        state, message.speaker,
                        inputs[message.speaker], board,
                    )
                    nu = posterior.predictive(state, message.speaker, board)
                    # Pointwise log-ratio contribution of the realized
                    # message (the chain rule holds in expectation, so we
                    # accumulate log(eta/nu) realized, not full KL).
                    import math

                    path_divergence += math.log2(
                        eta[message.bits] / nu[message.bits]
                    )
                    posterior.observe(
                        state, message.speaker, board, message.bits
                    )
                    state = protocol.advance_state(state, message)
                    board = board.extend(message)
                total += p_inputs * p_t * path_divergence
        assert total == pytest.approx(ic, abs=1e-7)

    @settings(deadline=None, max_examples=8)
    @given(st.integers(0, 10_000))
    def test_compressed_transcripts_preserve_the_law(self, seed):
        """For random protocols, the compressed execution's transcript
        marginal matches the original (Monte-Carlo, coarse tolerance)."""
        rng = random.Random(seed)
        k = 2
        protocol = random_boolean_protocol(k, rng, rounds=1)
        mu = uniform_bits(k)
        inputs = (0, 1)
        from repro.core import transcript_distribution

        true = transcript_distribution(protocol, inputs)
        run_rng = random.Random(seed + 7)
        trials = 800
        counts = {}
        for _ in range(trials):
            t = compress_execution(protocol, mu, inputs, run_rng).transcript
            counts[t] = counts.get(t, 0) + 1
        for transcript, prob in true.items():
            assert counts.get(transcript, 0) / trials == pytest.approx(
                prob, abs=0.08
            )

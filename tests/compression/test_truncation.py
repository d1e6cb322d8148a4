"""Tests for the Lemma 7 ε-truncation (block limit)."""

import math
import random

import pytest

from repro.compression import run_naive_dart_protocol
from repro.information import DiscreteDistribution


class TestBlockLimit:
    def test_failure_probability_tracks_exp_minus_t(self):
        """Pr[abort with limit t] = (1 - 1/|U|)^{t|U|} ~ e^{-t}."""
        rng = random.Random(0)
        d = DiscreteDistribution({"a": 0.5, "b": 0.5})
        universe = ["a", "b"]
        trials = 4000
        for t in (1, 2):
            failures = sum(
                run_naive_dart_protocol(
                    d, d, rng, universe, block_limit=t
                ).failed
                for _ in range(trials)
            )
            expected = (1 - 1 / len(universe)) ** (t * len(universe))
            assert failures / trials == pytest.approx(expected, abs=0.03)

    def test_success_still_agrees(self):
        rng = random.Random(1)
        eta = DiscreteDistribution({"x": 0.7, "y": 0.3})
        nu = DiscreteDistribution({"x": 0.3, "y": 0.7})
        for _ in range(300):
            result = run_naive_dart_protocol(
                eta, nu, rng, ["x", "y"], block_limit=8
            )
            if not result.failed:
                assert result.agreed
            else:
                assert result.receiver_value is None

    def test_worst_case_block_cost_bounded(self):
        """With limit t, the block announcement never exceeds the Elias
        gamma length of t + 1 — the O(log 1/eps) term of Lemma 7."""
        from repro.coding import elias_gamma_length

        rng = random.Random(2)
        d = DiscreteDistribution({"a": 0.5, "b": 0.5})
        t = 4
        for _ in range(500):
            result = run_naive_dart_protocol(
                d, d, rng, ["a", "b"], block_limit=t
            )
            assert result.message.cost.block_bits <= elias_gamma_length(t + 1)

    def test_limit_validation(self):
        rng = random.Random(3)
        d = DiscreteDistribution({"a": 1.0})
        with pytest.raises(ValueError):
            run_naive_dart_protocol(d, d, rng, ["a"], block_limit=0)

    def test_speaker_sample_still_eta_distributed_on_failure(self):
        """Even on abort the speaker's own output is a true η-sample
        (the lemma's X ~ η holds unconditionally)."""
        rng = random.Random(4)
        eta = DiscreteDistribution({"x": 0.8, "y": 0.2})
        values = []
        for _ in range(6000):
            result = run_naive_dart_protocol(
                eta, eta, rng, ["x", "y"], block_limit=1
            )
            values.append(result.message.value)
        freq = values.count("x") / len(values)
        assert freq == pytest.approx(0.8, abs=0.02)

"""Tests for the Lemma 7 rejection-sampling message simulation."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    SamplerStepLimitError,
    curve_masses,
    lemma7_cost_bound,
    run_naive_dart_protocol,
    simulate_sampling_round,
)
from repro.compression import sampling
from repro.compression.sampling import expected_round_cost
from repro.information import DiscreteDistribution, kl_divergence


def make_pair(weights_eta, weights_nu):
    keys = sorted(set(weights_eta) | set(weights_nu))
    eta = DiscreteDistribution(
        {k: weights_eta.get(k, 1e-6) for k in keys}, normalize=True
    )
    nu = DiscreteDistribution(
        {k: weights_nu.get(k, 1e-6) for k in keys}, normalize=True
    )
    return eta, nu, keys


class TestNaiveDartProtocol:
    def test_receiver_always_agrees(self):
        rng = random.Random(0)
        eta = DiscreteDistribution({"a": 0.6, "b": 0.3, "c": 0.1})
        nu = DiscreteDistribution({"a": 0.2, "b": 0.3, "c": 0.5})
        for _ in range(500):
            result = run_naive_dart_protocol(eta, nu, rng, ["a", "b", "c"])
            assert result.agreed

    def test_output_distribution_is_eta(self):
        rng = random.Random(1)
        eta = DiscreteDistribution({"x": 0.75, "y": 0.25})
        nu = DiscreteDistribution({"x": 0.25, "y": 0.75})
        counts = Counter(
            run_naive_dart_protocol(eta, nu, rng, ["x", "y"]).message.value
            for _ in range(6000)
        )
        assert counts["x"] / 6000 == pytest.approx(0.75, abs=0.02)

    def test_identical_distributions_cheap(self):
        """When nu == eta the log-ratio is 0 and the candidate set is
        small: total cost stays a few bits."""
        rng = random.Random(2)
        d = DiscreteDistribution({"a": 0.5, "b": 0.5})
        costs = [
            run_naive_dart_protocol(d, d, rng, ["a", "b"]).message
            .cost.total_bits
            for _ in range(300)
        ]
        assert sum(costs) / len(costs) < 6.0

    def test_cost_tracks_divergence(self):
        """Mean cost grows with D(eta || nu) and respects the Lemma 7
        bound curve."""
        rng = random.Random(3)
        results = []
        for spread in (1, 3, 6):
            eta = DiscreteDistribution({0: 1.0 - 2.0**-spread,
                                        1: 2.0**-spread})
            nu = DiscreteDistribution({0: 2.0**-spread,
                                       1: 1.0 - 2.0**-spread})
            divergence = kl_divergence(eta, nu)
            costs = [
                run_naive_dart_protocol(eta, nu, rng, [0, 1]).message
                .cost.total_bits
                for _ in range(800)
            ]
            mean = sum(costs) / len(costs)
            results.append((divergence, mean))
            assert mean <= lemma7_cost_bound(divergence)
        assert results[0][1] < results[-1][1]

    def test_absolute_continuity_required(self):
        rng = random.Random(4)
        eta = DiscreteDistribution({"a": 0.5, "b": 0.5})
        nu = DiscreteDistribution.point_mass("a")
        with pytest.raises(ValueError, match="zero mass"):
            # Retry until the sampler picks "b" (prob 1/2 per draw).
            for _ in range(64):
                run_naive_dart_protocol(eta, nu, rng, ["a", "b"])

    def test_universe_must_cover_support(self):
        rng = random.Random(5)
        eta = DiscreteDistribution({"a": 0.5, "b": 0.5})
        nu = DiscreteDistribution({"a": 0.5, "b": 0.5})
        with pytest.raises(ValueError, match="cover"):
            run_naive_dart_protocol(eta, nu, rng, ["a"])


class TestFastSimulation:
    def test_value_distribution_is_eta(self):
        rng = random.Random(6)
        eta = DiscreteDistribution({"x": 0.3, "y": 0.7})
        nu = DiscreteDistribution({"x": 0.6, "y": 0.4})
        counts = Counter(
            simulate_sampling_round(eta, nu, rng, universe=["x", "y"]).value
            for _ in range(6000)
        )
        assert counts["y"] / 6000 == pytest.approx(0.7, abs=0.02)

    def test_cost_distribution_matches_naive(self):
        """The whole point of the fast path: same communicated-bit law as
        the literal dart protocol (validated here on a small universe)."""
        rng_a = random.Random(7)
        rng_b = random.Random(8)
        eta = DiscreteDistribution({"a": 0.55, "b": 0.35, "c": 0.10})
        nu = DiscreteDistribution({"a": 0.15, "b": 0.25, "c": 0.60})
        universe = ["a", "b", "c"]
        trials = 4000
        naive = [
            run_naive_dart_protocol(eta, nu, rng_a, universe).message
            for _ in range(trials)
        ]
        fast = [
            simulate_sampling_round(eta, nu, rng_b, universe=universe)
            for _ in range(trials)
        ]
        mean_naive = sum(m.cost.total_bits for m in naive) / trials
        mean_fast = sum(m.cost.total_bits for m in fast) / trials
        assert mean_fast == pytest.approx(mean_naive, abs=0.3)
        # Per-component means too.
        for field in ("block_bits", "ratio_bits", "rank_bits"):
            a = sum(getattr(m.cost, field) for m in naive) / trials
            b = sum(getattr(m.cost, field) for m in fast) / trials
            assert b == pytest.approx(a, abs=0.25), field

    def test_block_distribution(self):
        """B = ceil(i / |U|) with i ~ Geom(1/|U|): Pr[B = 1] =
        1 - (1 - 1/|U|)^|U| ~ 1 - 1/e."""
        rng = random.Random(9)
        d = DiscreteDistribution({"a": 0.5, "b": 0.5})
        blocks = Counter(
            simulate_sampling_round(d, d, rng, universe=["a", "b"]).block
            for _ in range(5000)
        )
        expected = 1 - (1 - 0.5) ** 2
        assert blocks[1] / 5000 == pytest.approx(expected, abs=0.03)

    def test_pre_sampled_value_mode(self):
        """The amortized caller pre-samples the value and supplies the
        log-ratio; the cost fields must still be populated."""
        rng = random.Random(10)
        message = simulate_sampling_round(
            None, None, rng,
            universe_size=2**100,
            value=("m1", "m2"),
            log_ratio=3.7,
        )
        assert message.value == ("m1", "m2")
        assert message.s == 4
        assert message.cost.total_bits >= 1

    def test_pre_sampled_requires_enough_info(self):
        rng = random.Random(11)
        with pytest.raises(ValueError):
            simulate_sampling_round(None, None, rng, universe_size=4)

    def test_huge_universe_large_ratio(self):
        """Astronomically large universes and ratios must not overflow."""
        rng = random.Random(12)
        message = simulate_sampling_round(
            None, None, rng,
            universe_size=2**5000,
            value="v",
            log_ratio=900.0,
        )
        # rank width ~ s = 900 bits, plus small block/ratio terms.
        assert 800 <= message.cost.rank_bits <= 1000
        assert message.cost.total_bits < 1100

    def test_negative_log_ratio(self):
        """Footnote 4: s may be negative; the cost must stay small."""
        rng = random.Random(13)
        costs = [
            simulate_sampling_round(
                None, None, rng,
                universe_size=2**60, value="v", log_ratio=-5.0,
            ).cost.total_bits
            for _ in range(200)
        ]
        # Encoding s = -5 costs ~7 bits (signed Elias gamma) but the rank
        # is free: total stays O(log |s|) + O(1), independent of |U|.
        assert sum(costs) / len(costs) < 12.0

    def test_universe_arguments_exclusive(self):
        rng = random.Random(14)
        d = DiscreteDistribution({"a": 1.0})
        with pytest.raises(ValueError):
            simulate_sampling_round(d, d, rng)
        with pytest.raises(ValueError):
            simulate_sampling_round(
                d, d, rng, universe=["a"], universe_size=1
            )


class TestCurveMasses:
    def test_masses_formula(self):
        eta = DiscreteDistribution({"a": 0.5, "b": 0.5})
        nu = DiscreteDistribution({"a": 0.25, "b": 0.75})
        a_g, a_g_eta = curve_masses(eta, nu, 1, ["a", "b"])
        # g = min(2 nu, 1): g(a) = 0.5, g(b) = 1.0.
        assert a_g == pytest.approx(1.5)
        # min(g, eta): a -> 0.5, b -> 0.5.
        assert a_g_eta == pytest.approx(1.0)

    def test_negative_s(self):
        eta = DiscreteDistribution({"a": 0.5, "b": 0.5})
        nu = DiscreteDistribution({"a": 0.5, "b": 0.5})
        a_g, a_g_eta = curve_masses(eta, nu, -1, ["a", "b"])
        assert a_g == pytest.approx(0.5)
        assert a_g_eta == pytest.approx(0.5)


class TestCostBound:
    @given(st.floats(min_value=0.0, max_value=100.0))
    def test_monotone(self, d):
        assert lemma7_cost_bound(d + 1.0) > lemma7_cost_bound(d)

    def test_validation(self):
        with pytest.raises(ValueError):
            lemma7_cost_bound(-1.0)


class TestStepBounds:
    """Each sampler loop stops at a fixed step bound with a typed error,
    so broken arithmetic fails at once instead of spinning."""

    eta = DiscreteDistribution({"a": 0.6, "b": 0.3, "c": 0.1})
    nu = DiscreteDistribution({"a": 0.2, "b": 0.3, "c": 0.5})

    def test_block_series(self, monkeypatch):
        monkeypatch.setattr(sampling, "_MAX_BLOCKS", 3)
        with pytest.raises(SamplerStepLimitError, match="after 3 blocks"):
            expected_round_cost(self.eta, self.nu, ["a", "b", "c"])

    def test_round_off_guard_on_both_paths(self, monkeypatch):
        # 2^-2000 underflows to 0, so no round-off step can reach eta(x).
        monkeypatch.setattr(sampling, "_log_ratio_ceil", lambda eta_x, nu_x: -2000)
        with pytest.raises(SamplerStepLimitError, match="round-off steps"):
            expected_round_cost(self.eta, self.nu, ["a", "b", "c"])
        with pytest.raises(SamplerStepLimitError, match="round-off steps"):
            run_naive_dart_protocol(
                self.eta, self.nu, random.Random(0), ["a", "b", "c"]
            )

    def test_poisson_inversion(self, monkeypatch):
        class Last:
            def random(self):
                return 1.0 - 2.0**-53

        monkeypatch.setattr(sampling, "_MAX_POISSON_TERMS", 2)
        with pytest.raises(SamplerStepLimitError, match="passed 2 terms"):
            sampling._sample_poisson(Last(), 5.0)  # noqa: SLF001

"""Tests for the Section 6 information/communication gap."""

import itertools
import math

import pytest

from repro.compression import (
    and_gap_report,
    lemma6_communication_bound,
)
from repro.compression.gap import _iid_bits
from repro.information import DiscreteDistribution


class TestGapReport:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_information_below_entropy_bound(self, k):
        report = and_gap_report(k)
        for name, ic in report.information_costs.items():
            assert ic <= report.entropy_bound + 1e-9, name

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_communication_is_k(self, k):
        report = and_gap_report(k)
        assert report.worst_case_communication == k

    def test_gap_ratio_grows(self):
        """The measured CC/IC ratio grows roughly like k / log k."""
        ratios = {k: and_gap_report(k).gap_ratio for k in (4, 8, 12)}
        assert ratios[8] > ratios[4]
        assert ratios[12] > ratios[8]
        # Within constants of k / log2(k + 1).
        for k, ratio in ratios.items():
            assert ratio >= k / math.log2(k + 1) * 0.5

    def test_custom_distributions(self):
        k = 3
        custom = {
            "point": DiscreteDistribution.point_mass((1, 1, 1)),
        }
        report = and_gap_report(k, distributions=custom)
        # A point-mass input distribution reveals nothing.
        assert report.information_costs["point"] == pytest.approx(
            0.0, abs=1e-9
        )

    def test_k_validation(self):
        with pytest.raises(ValueError):
            and_gap_report(1)


class TestLemma6Bound:
    def test_formula(self):
        assert lemma6_communication_bound(
            100, eps=0.05, eps_prime=0.2
        ) == pytest.approx((1 - 0.05 / 0.8) * 100)

    def test_linear_in_k(self):
        b1 = lemma6_communication_bound(64)
        b2 = lemma6_communication_bound(128)
        assert b2 == pytest.approx(2 * b1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            lemma6_communication_bound(10, eps=0.3, eps_prime=0.2)
        with pytest.raises(ValueError):
            lemma6_communication_bound(10, eps=0.0, eps_prime=0.2)


def reference_iid_bits(k, p_one):
    """The per-tuple product loop ``_iid_bits`` replaced."""
    probs = {}
    for bits in itertools.product((0, 1), repeat=k):
        weight = 1.0
        for b in bits:
            weight *= p_one if b else (1.0 - p_one)
        probs[bits] = weight
    return DiscreteDistribution(probs, normalize=True)


class TestIidBits:
    @pytest.mark.parametrize("k", range(1, 11))
    @pytest.mark.parametrize("p_one", ["biased", 0.3, 0.0, 1.0])
    def test_matches_the_product_loop_bit_for_bit(self, k, p_one):
        if p_one == "biased":
            p_one = 1.0 - 1.0 / (k + 1)
        expected = [
            (x, p.hex()) for x, p in reference_iid_bits(k, p_one).items()
        ]
        actual = [(x, p.hex()) for x, p in _iid_bits(k, p_one).items()]
        assert actual == expected

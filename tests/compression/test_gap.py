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
from repro.lowerbounds.hard_distribution import (
    and_hard_input_marginal,
    lemma6_distribution,
)


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

    @pytest.mark.parametrize("k", [2, 4, 8, 12])
    def test_explicit_default_suite(self, k):
        # The default suite passed by hand reports what the default
        # call reports, name for name and float for float.
        explicit = {
            "uniform": _iid_bits(k, 0.5),
            "iid_biased": _iid_bits(k, 1.0 - 1.0 / k),
            "hard_marginal": and_hard_input_marginal(k),
            "lemma6": lemma6_distribution(k, 0.2),
        }
        given = and_gap_report(k, distributions=explicit)
        default = and_gap_report(k)
        assert [
            (name, ic.hex()) for name, ic in given.information_costs.items()
        ] == [
            (name, ic.hex()) for name, ic in default.information_costs.items()
        ]
        assert given == default

    def test_default_suite_values_are_pinned(self):
        report = and_gap_report(8)
        assert {
            name: ic.hex() for name, ic in report.information_costs.items()
        } == {
            "uniform": "0x1.fe00000000000p+0",
            "iid_biased": "0x1.6d5a94e9395cap+1",
            "hard_marginal": "0x1.6a6010e11d526p+1",
            "lemma6": "0x1.8f9b56fe009d5p+1",
        }

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

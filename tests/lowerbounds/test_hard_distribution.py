"""Tests for the Section 4 hard distributions."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.information import DiscreteDistribution
from repro.lowerbounds import (
    and_hard_distribution,
    and_hard_input_marginal,
    conditional_zero_prior,
    disjointness_hard_distribution,
    lemma6_distribution,
)


class TestAndHardDistribution:
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_lemma1_condition1_no_all_ones(self, k):
        """Every support point has AND = 0 (condition (1) of Lemma 1)."""
        mu = and_hard_distribution(k)
        for (x, z), _p in mu.items():
            assert min(x) == 0
            assert x[z] == 0

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_lemma1_condition2_conditional_independence(self, k):
        """Conditioned on Z = z, the coordinates are independent
        (condition (2) of Lemma 1): the conditional joint factors into
        the product of its marginals."""
        mu = and_hard_distribution(k)
        for z in range(k):
            conditional = mu.condition(lambda o, _z=z: o[1] == _z).map(
                lambda o: o[0]
            )
            marginals = []
            for i in range(k):
                marginals.append(
                    conditional.map(lambda x, _i=i: x[_i])
                )
            for x, p in conditional.items():
                product = 1.0
                for i in range(k):
                    product *= marginals[i][x[i]]
                assert p == pytest.approx(product, abs=1e-9)

    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_marginals(self, k):
        """Pr[X_i = 0 | Z = z] is 1 for i = z and 1/k otherwise."""
        mu = and_hard_distribution(k)
        for z in range(k):
            conditional = mu.condition(lambda o, _z=z: o[1] == _z)
            for i in range(k):
                p_zero = conditional.probability(lambda o, _i=i: o[0][_i] == 0)
                if i == z:
                    assert p_zero == pytest.approx(1.0)
                else:
                    assert p_zero == pytest.approx(1.0 / k)

    def test_z_uniform(self):
        k = 5
        mu = and_hard_distribution(k)
        for z in range(k):
            assert mu.probability(lambda o, _z=z: o[1] == _z) == pytest.approx(
                1.0 / k
            )

    def test_two_zero_probability_is_constant(self):
        """The analysis conditions on exactly two zeros; that event has
        constant probability: (k-1)/k * (1 - 1/k)^(k-2) -> 1/e."""
        for k in (4, 8, 12):
            mu = and_hard_distribution(k)
            p2 = mu.probability(lambda o: o[0].count(0) == 2)
            expected = (k - 1) / k * (1 - 1 / k) ** (k - 2)
            assert p2 == pytest.approx(expected, abs=1e-9)
            assert p2 > 0.25  # bounded away from zero, as the proof needs

    def test_truncated_support(self):
        k = 6
        mu = and_hard_distribution(k, max_zeros=3)
        assert all(x.count(0) <= 3 for (x, _z), _p in mu.items())
        # Truncation is a conditioning: relative weights within the
        # retained support are unchanged.
        full = and_hard_distribution(k)
        keep = full.probability(lambda o: o[0].count(0) <= 3)
        for outcome, p in mu.items():
            assert p == pytest.approx(full[outcome] / keep, abs=1e-9)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            and_hard_distribution(1)
        with pytest.raises(ValueError):
            and_hard_distribution(4, max_zeros=0)

    def test_input_marginal(self):
        k = 3
        marginal = and_hard_input_marginal(k)
        assert all(min(x) == 0 for x in marginal.support())

    @pytest.mark.parametrize("max_zeros", [None, 1, 2, 3])
    @pytest.mark.parametrize("k", range(2, 17))
    def test_input_marginal_is_the_map_of_mu(self, k, max_zeros):
        # Built directly, yet item for item and float for float the
        # pushforward of the materialized mu.
        direct = and_hard_input_marginal(k, max_zeros=max_zeros)
        mapped = and_hard_distribution(k, max_zeros=max_zeros).map(
            lambda outcome: outcome[0]
        )
        assert list(direct.items()) == list(mapped.items())

    def test_conditional_zero_prior(self):
        assert conditional_zero_prior(10) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            conditional_zero_prior(1)


class TestDisjointnessHardDistribution:
    def test_product_structure(self):
        n, k = 2, 3
        mu_n = disjointness_hard_distribution(n, k)
        base = and_hard_distribution(k)
        # Marginal of coordinate j must equal the base distribution.
        for j in range(n):
            marginal = mu_n.map(
                lambda o, _j=j: (
                    tuple((o[0][i] >> _j) & 1 for i in range(k)),
                    o[1][_j],
                )
            )
            for outcome, p in base.items():
                assert marginal[outcome] == pytest.approx(p, abs=1e-9)

    def test_every_support_point_is_non_disjoint(self):
        """Every coordinate has a zero for someone... so the intersection
        is empty and DISJ = 1 on the whole support (the paper's footnote:
        correctness is worst-case, the distribution is only for
        information accounting)."""
        n, k = 2, 2
        mu_n = disjointness_hard_distribution(n, k)
        full = (1 << n) - 1
        for (masks, _zs), _p in mu_n.items():
            intersection = full
            for mask in masks:
                intersection &= mask
            assert intersection == 0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            disjointness_hard_distribution(0, 3)


class TestLemma6Distribution:
    def test_structure(self):
        k, eps = 5, 0.3
        mu = lemma6_distribution(k, eps)
        assert mu[tuple([1] * k)] == pytest.approx(eps)
        single_zero = [x for x in mu.support() if x.count(0) == 1]
        assert len(single_zero) == k
        for x in single_zero:
            assert mu[x] == pytest.approx((1 - eps) / k)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            lemma6_distribution(0, 0.2)
        with pytest.raises(ValueError):
            lemma6_distribution(4, 0.0)
        with pytest.raises(ValueError):
            lemma6_distribution(4, 1.0)

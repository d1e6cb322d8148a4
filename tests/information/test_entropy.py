"""Tests for entropy / mutual information (Definitions 1–3) including
hypothesis property tests of the classical identities the paper uses."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.information import (
    DiscreteDistribution,
    JointDistribution,
    binary_entropy,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    mutual_information,
)


def joint_from_weights(weights):
    """Build a 3-component named joint from a weight table."""
    probs = {}
    for (a, b, c), w in weights.items():
        probs[(a, b, c)] = w
    return JointDistribution(probs, names=["a", "b", "c"], normalize=True)


triple_weights = st.dictionaries(
    st.tuples(
        st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
    ),
    st.floats(min_value=1e-6, max_value=5.0, allow_nan=False),
    min_size=2,
    max_size=20,
)


class TestEntropy:
    def test_fair_coin(self):
        assert entropy(DiscreteDistribution({1: 0.5, 0: 0.5})) == pytest.approx(1.0)

    def test_point_mass_is_zero(self):
        assert entropy(DiscreteDistribution.point_mass("x")) == 0.0

    def test_uniform_is_log_support(self):
        d = DiscreteDistribution.uniform(range(8))
        assert entropy(d) == pytest.approx(3.0)

    def test_repeated_calls_return_the_cached_value(self):
        rng = random.Random(4)
        d = DiscreteDistribution(
            {i: rng.random() + 1e-3 for i in range(4096)}, normalize=True
        )
        first = entropy(d)
        assert all(entropy(d) == first for _ in range(200))

    def test_binary_entropy_matches_entropy(self):
        for p in (0.0, 0.1, 0.35, 0.5, 0.99, 1.0):
            if 0 < p < 1:
                d = DiscreteDistribution({1: p, 0: 1.0 - p})
                assert binary_entropy(p) == pytest.approx(entropy(d))
            else:
                assert binary_entropy(p) == 0.0

    def test_binary_entropy_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    @given(
        st.dictionaries(
            st.integers(0, 30),
            st.floats(min_value=1e-6, max_value=5.0, allow_nan=False),
            min_size=1,
            max_size=16,
        )
    )
    def test_entropy_bounds(self, weights):
        d = DiscreteDistribution(weights, normalize=True)
        h = entropy(d)
        assert -1e-9 <= h <= math.log2(len(d)) + 1e-9

    @given(
        st.dictionaries(
            st.integers(0, 10),
            st.floats(min_value=1e-6, max_value=5.0, allow_nan=False),
            min_size=2,
            max_size=8,
        ),
        st.dictionaries(
            st.integers(0, 10),
            st.floats(min_value=1e-6, max_value=5.0, allow_nan=False),
            min_size=2,
            max_size=8,
        ),
    )
    def test_entropy_additive_over_independent_product(self, wa, wb):
        a = DiscreteDistribution(wa, normalize=True)
        b = DiscreteDistribution(wb, normalize=True)
        assert entropy(a.product(b)) == pytest.approx(
            entropy(a) + entropy(b), abs=1e-9
        )


class TestConditionalEntropy:
    def test_conditioning_reduces_entropy(self):
        # X = Y xor noise: H(X | Y) < H(X).
        j = JointDistribution(
            {
                (0, 0): 0.4,
                (1, 0): 0.1,
                (0, 1): 0.1,
                (1, 1): 0.4,
            },
            names=["x", "y"],
        )
        assert conditional_entropy(j, "x", "y") < entropy(j.marginal("x"))

    def test_independent_conditioning_is_noop(self):
        a = DiscreteDistribution({1: 0.3, 0: 0.7})
        j = JointDistribution(a.product(a).as_dict(), names=["x", "y"])
        assert conditional_entropy(j, "x", "y") == pytest.approx(
            entropy(j.marginal("x")), abs=1e-9
        )

    def test_deterministic_function_has_zero_conditional_entropy(self):
        d = DiscreteDistribution.uniform(range(4))
        j = JointDistribution(
            d.map(lambda x: (x, x % 2)).as_dict(), names=["x", "parity"]
        )
        assert conditional_entropy(j, "parity", "x") == pytest.approx(
            0.0, abs=1e-9
        )

    @given(triple_weights)
    def test_chain_rule(self, weights):
        """H(A, B) = H(A) + H(B | A) (the identity Section 6 relies on)."""
        j = joint_from_weights(weights)
        lhs = entropy(j.marginal(["a", "b"]))
        rhs = entropy(j.marginal("a")) + conditional_entropy(j, "b", "a")
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(triple_weights)
    def test_entropy_chain_terms_sum(self, weights):
        j = joint_from_weights(weights)
        terms = [
            entropy(j.marginal("a")),
            conditional_entropy(j, "b", "a"),
            conditional_entropy(j, "c", ["a", "b"]),
        ]
        total = entropy(j.marginal(["a", "b", "c"]))
        assert sum(terms) == pytest.approx(total, abs=1e-9)


class TestMutualInformation:
    def test_identical_variables(self):
        d = DiscreteDistribution.uniform(range(4))
        j = JointDistribution(
            d.map(lambda x: (x, x)).as_dict(), names=["x", "y"]
        )
        assert mutual_information(j, "x", "y") == pytest.approx(2.0)

    def test_independent_variables(self):
        a = DiscreteDistribution({1: 0.3, 0: 0.7})
        j = JointDistribution(a.product(a).as_dict(), names=["x", "y"])
        assert mutual_information(j, "x", "y") == pytest.approx(0.0, abs=1e-9)

    def test_symmetric(self):
        j = JointDistribution(
            {(0, "p"): 0.5, (1, "p"): 0.25, (1, "q"): 0.25},
            names=["x", "y"],
        )
        assert mutual_information(j, "x", "y") == pytest.approx(
            mutual_information(j, "y", "x"), abs=1e-12
        )

    def test_grouped_components(self):
        # I((A, B); C) where C = A xor B.
        probs = {}
        for a in (0, 1):
            for b in (0, 1):
                probs[(a, b, a ^ b)] = 0.25
        j = JointDistribution(probs, names=["a", "b", "c"])
        assert mutual_information(j, ["a", "b"], "c") == pytest.approx(1.0)
        # But each of A, B alone says nothing about C.
        assert mutual_information(j, "a", "c") == pytest.approx(0.0, abs=1e-9)

    @given(triple_weights)
    def test_nonnegative(self, weights):
        j = joint_from_weights(weights)
        assert mutual_information(j, "a", "b") >= -1e-12

    @given(triple_weights)
    def test_equals_entropy_difference(self, weights):
        j = joint_from_weights(weights)
        mi = mutual_information(j, "a", "b")
        diff = entropy(j.marginal("a")) - conditional_entropy(j, "a", "b")
        assert mi == pytest.approx(diff, abs=1e-8)

    @given(triple_weights)
    def test_bounded_by_entropy(self, weights):
        j = joint_from_weights(weights)
        mi = mutual_information(j, "a", "b")
        assert mi <= entropy(j.marginal("a")) + 1e-9
        assert mi <= entropy(j.marginal("b")) + 1e-9


class TestConditionalMutualInformation:
    def test_conditioning_on_the_variable_itself(self):
        j = JointDistribution(
            {(0, 0): 0.5, (1, 1): 0.5}, names=["x", "y"]
        )
        assert conditional_mutual_information(j, "x", "y", "y") == pytest.approx(
            0.0, abs=1e-9
        )

    def test_xor_becomes_informative_given_one_argument(self):
        probs = {}
        for a in (0, 1):
            for b in (0, 1):
                probs[(a, b, a ^ b)] = 0.25
        j = JointDistribution(probs, names=["a", "b", "c"])
        # I(A; C) = 0 but I(A; C | B) = 1 — conditioning can increase MI.
        assert conditional_mutual_information(j, "a", "c", "b") == pytest.approx(
            1.0
        )

    @given(triple_weights)
    def test_chain_rule_for_mutual_information(self, weights):
        """I((A,B); C) = I(A; C) + I(B; C | A)."""
        j = joint_from_weights(weights)
        lhs = mutual_information(j, ["a", "b"], "c")
        rhs = mutual_information(j, "a", "c") + conditional_mutual_information(
            j, "b", "c", "a"
        )
        assert lhs == pytest.approx(rhs, abs=1e-8)

    @given(triple_weights)
    def test_nonnegative(self, weights):
        j = joint_from_weights(weights)
        assert conditional_mutual_information(j, "a", "b", "c") >= -1e-9

"""Unit tests for repro.information.distribution."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.information import DiscreteDistribution, JointDistribution


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------
class TestConstruction:
    def test_basic_probabilities(self):
        d = DiscreteDistribution({"a": 0.25, "b": 0.75})
        assert d["a"] == pytest.approx(0.25)
        assert d["b"] == pytest.approx(0.75)

    def test_missing_outcome_is_zero(self):
        d = DiscreteDistribution({"a": 1.0})
        assert d["zzz"] == 0.0
        assert "zzz" not in d

    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteDistribution({"a": 0.5, "b": 0.4})

    def test_normalize_rescales(self):
        d = DiscreteDistribution({"a": 2.0, "b": 6.0}, normalize=True)
        assert d["a"] == pytest.approx(0.25)
        assert d["b"] == pytest.approx(0.75)

    def test_normalize_rejects_zero_mass(self):
        with pytest.raises(ValueError, match="not positive"):
            DiscreteDistribution({"a": 0.0}, normalize=True)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteDistribution({"a": -0.5, "b": 1.5})

    def test_zero_probability_outcomes_dropped(self):
        d = DiscreteDistribution({"a": 1.0, "b": 0.0})
        assert d.support() == ["a"]

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDistribution({})
        with pytest.raises(ValueError):
            DiscreteDistribution({"a": 0.0}, normalize=True)

    def test_uniform(self):
        d = DiscreteDistribution.uniform(["x", "y", "z", "w"])
        assert all(d[o] == pytest.approx(0.25) for o in "xyzw")

    def test_uniform_duplicates_accumulate(self):
        d = DiscreteDistribution.uniform(["x", "x", "y"])
        assert d["x"] == pytest.approx(2 / 3)

    def test_uniform_empty_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDistribution.uniform([])

    def test_point_mass(self):
        d = DiscreteDistribution.point_mass(("tuple", "key"))
        assert d[("tuple", "key")] == 1.0
        assert len(d) == 1

    def test_from_samples(self):
        d = DiscreteDistribution.from_samples(["a", "a", "b", "a"])
        assert d["a"] == pytest.approx(0.75)

    def test_from_samples_empty_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDistribution.from_samples([])


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
class TestOperations:
    def test_map_merges_outcomes(self):
        d = DiscreteDistribution.uniform([0, 1, 2, 3])
        parity = d.map(lambda x: x % 2)
        assert parity[0] == pytest.approx(0.5)
        assert parity[1] == pytest.approx(0.5)

    def test_condition(self):
        d = DiscreteDistribution.uniform([0, 1, 2, 3])
        even = d.condition(lambda x: x % 2 == 0)
        assert even[0] == pytest.approx(0.5)
        assert even[1] == 0.0

    def test_condition_zero_probability_event(self):
        d = DiscreteDistribution.uniform([0, 1])
        with pytest.raises(ValueError, match="probability zero"):
            d.condition(lambda x: x > 10)

    def test_probability(self):
        d = DiscreteDistribution.uniform([0, 1, 2, 3])
        assert d.probability(lambda x: x < 3) == pytest.approx(0.75)

    def test_expect(self):
        d = DiscreteDistribution.uniform([0, 1, 2, 3])
        assert d.expect(float) == pytest.approx(1.5)

    def test_product(self):
        a = DiscreteDistribution({1: 0.5, 0: 0.5})
        b = DiscreteDistribution({1: 0.25, 0: 0.75})
        prod = a.product(b)
        assert prod[(1, 1)] == pytest.approx(0.125)
        assert prod[(0, 0)] == pytest.approx(0.375)

    def test_mode(self):
        d = DiscreteDistribution({"a": 0.2, "b": 0.5, "c": 0.3})
        assert d.mode() == "b"

    def test_is_close(self):
        a = DiscreteDistribution({"x": 0.5, "y": 0.5})
        b = DiscreteDistribution({"x": 0.5 + 1e-12, "y": 0.5 - 1e-12},
                                 normalize=True)
        assert a.is_close(b)
        assert a == b

    def test_not_close(self):
        a = DiscreteDistribution({"x": 0.5, "y": 0.5})
        b = DiscreteDistribution({"x": 0.6, "y": 0.4})
        assert not a.is_close(b)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(DiscreteDistribution.point_mass("x"))


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
class TestSampling:
    def test_sample_frequencies(self):
        rng = random.Random(0)
        d = DiscreteDistribution({"a": 0.8, "b": 0.2})
        samples = d.sample_many(rng, 5000)
        freq = samples.count("a") / len(samples)
        assert abs(freq - 0.8) < 0.03

    def test_sample_point_mass(self):
        rng = random.Random(0)
        d = DiscreteDistribution.point_mass(17)
        assert d.sample(rng) == 17


# ----------------------------------------------------------------------
# Property-based invariants
# ----------------------------------------------------------------------
weights_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=20),
    st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=12,
)


class TestProperties:
    @given(weights_strategy)
    def test_normalized_mass_is_one(self, weights):
        d = DiscreteDistribution(weights, normalize=True)
        assert math.isclose(sum(p for _, p in d.items()), 1.0, abs_tol=1e-9)

    @given(weights_strategy)
    def test_map_preserves_mass(self, weights):
        d = DiscreteDistribution(weights, normalize=True)
        mapped = d.map(lambda x: x // 3)
        assert math.isclose(
            sum(p for _, p in mapped.items()), 1.0, abs_tol=1e-9
        )

    @given(weights_strategy, weights_strategy)
    def test_product_marginals_recover_factors(self, wa, wb):
        a = DiscreteDistribution(wa, normalize=True)
        b = DiscreteDistribution(wb, normalize=True)
        joint = JointDistribution(a.product(b).as_dict())
        assert joint.marginal(0).is_close(a, tolerance=1e-9)
        assert joint.marginal(1).is_close(b, tolerance=1e-9)

    @given(weights_strategy)
    def test_condition_then_mixture_recovers(self, weights):
        d = DiscreteDistribution(weights, normalize=True)
        pred = lambda x: x % 2 == 0  # noqa: E731
        p_true = d.probability(pred)
        if p_true <= 1e-9 or p_true >= 1.0 - 1e-9:
            return  # conditioning on a (nearly) null event is undefined
        given_true = d.condition(pred)
        given_false = d.condition(lambda x: not pred(x))
        mix = DiscreteDistribution(
            {
                x: p_true * given_true[x] + (1 - p_true) * given_false[x]
                for x in d.support()
            }
        )
        assert mix.is_close(d, tolerance=1e-9)


# ----------------------------------------------------------------------
# JointDistribution
# ----------------------------------------------------------------------
class TestJointDistribution:
    def make_joint(self):
        return JointDistribution(
            {
                (0, "x", True): 0.1,
                (0, "y", False): 0.2,
                (1, "x", True): 0.3,
                (1, "y", True): 0.4,
            },
            names=["num", "letter", "flag"],
        )

    def test_arity_and_names(self):
        j = self.make_joint()
        assert j.arity == 3
        assert j.names == ("num", "letter", "flag")

    def test_mixed_arity_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            JointDistribution({(0,): 0.5, (0, 1): 0.5})

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            JointDistribution({(0, 1): 1.0}, names=["a", "a"])

    def test_name_count_must_match(self):
        with pytest.raises(ValueError, match="names given"):
            JointDistribution({(0, 1): 1.0}, names=["a"])

    def test_marginal_by_name(self):
        j = self.make_joint()
        num = j.marginal("num")
        assert num[0] == pytest.approx(0.3)
        assert num[1] == pytest.approx(0.7)

    def test_marginal_by_index(self):
        j = self.make_joint()
        assert j.marginal(1)["x"] == pytest.approx(0.4)

    def test_marginal_multiple_components(self):
        j = self.make_joint()
        pair = j.marginal(["num", "flag"])
        assert pair[(1, True)] == pytest.approx(0.7)

    def test_unknown_name_raises(self):
        j = self.make_joint()
        with pytest.raises(KeyError):
            j.marginal("nope")

    def test_index_out_of_range(self):
        j = self.make_joint()
        with pytest.raises(IndexError):
            j.marginal(5)

    def test_conditional(self):
        j = self.make_joint()
        cond = j.conditional("letter", "num", 0)
        assert cond["x"] == pytest.approx(0.1 / 0.3)
        assert cond["y"] == pytest.approx(0.2 / 0.3)

    def test_conditional_on_tuple_of_components(self):
        j = self.make_joint()
        cond = j.conditional("flag", ["num", "letter"], (1, "y"))
        assert cond[True] == pytest.approx(1.0)

    def test_conditional_zero_event(self):
        j = self.make_joint()
        with pytest.raises(ValueError, match="probability zero"):
            j.conditional("letter", "num", 99)

    def test_condition_predicate(self):
        j = self.make_joint()
        c = j.condition(lambda o: o[2])
        assert c.marginal("flag")[True] == pytest.approx(1.0)

    def test_append_component(self):
        j = self.make_joint()
        extended = j.append_component(lambda o: o[0] + 10, name="shifted")
        assert extended.marginal("shifted")[11] == pytest.approx(0.7)

    def test_append_component_needs_name_when_named(self):
        j = self.make_joint()
        with pytest.raises(ValueError, match="require a name"):
            j.append_component(lambda o: 0)

    def test_sample(self):
        j = self.make_joint()
        rng = random.Random(3)
        outcome = j.sample(rng)
        assert outcome in dict(j.items())

"""Tests for KL divergence (Definition 4) and Eq. (1)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.information import (
    DiscreteDistribution,
    JointDistribution,
    kl_divergence,
    log_ratio,
    mutual_information,
)

weights = st.dictionaries(
    st.integers(0, 8),
    st.floats(min_value=1e-4, max_value=5.0, allow_nan=False),
    min_size=2,
    max_size=9,
)

pair_weights = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.floats(min_value=1e-5, max_value=5.0, allow_nan=False),
    min_size=2,
    max_size=16,
)


def same_support_pair(wa, wb):
    """Two distributions forced onto the union support (so KL is finite)."""
    keys = set(wa) | set(wb)
    da = DiscreteDistribution({k: wa.get(k, 1e-4) for k in keys}, normalize=True)
    db = DiscreteDistribution({k: wb.get(k, 1e-4) for k in keys}, normalize=True)
    return da, db


def tv_distance(first, second):
    outcomes = set(first.support()) | set(second.support())
    return 0.5 * sum(abs(first[o] - second[o]) for o in outcomes)


def mi_via_posterior_divergence(joint, a, b):
    """Eq. (1), a code path apart from ``mutual_information``:
    I(A; B) = E_{b ~ mu(B)} D(mu(A | B = b) || mu(A))."""
    prior = joint.marginal(a)
    return sum(
        p * kl_divergence(joint.conditional(a, b, value), prior)
        for value, p in joint.marginal(b).items()
    )


class TestKLDivergence:
    def test_zero_iff_equal(self):
        d = DiscreteDistribution({"a": 0.3, "b": 0.7})
        assert kl_divergence(d, d) == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        # D(Bern(1) || Bern(1/2)) = 1 bit.
        posterior = DiscreteDistribution.point_mass(1)
        prior = DiscreteDistribution({1: 0.5, 0: 0.5})
        assert kl_divergence(posterior, prior) == pytest.approx(1.0)

    def test_infinite_when_not_absolutely_continuous(self):
        posterior = DiscreteDistribution.uniform(["a", "b"])
        prior = DiscreteDistribution.point_mass("a")
        assert kl_divergence(posterior, prior) == math.inf

    def test_asymmetric(self):
        a = DiscreteDistribution({"x": 0.9, "y": 0.1})
        b = DiscreteDistribution({"x": 0.5, "y": 0.5})
        assert kl_divergence(a, b) != pytest.approx(kl_divergence(b, a))

    @given(weights, weights)
    def test_nonnegative(self, wa, wb):
        da, db = same_support_pair(wa, wb)
        assert kl_divergence(da, db) >= 0.0

    @given(weights)
    def test_self_divergence_zero(self, w):
        d = DiscreteDistribution(w, normalize=True)
        assert kl_divergence(d, d) == pytest.approx(0.0, abs=1e-9)

    @given(weights, weights)
    def test_pinsker_inequality(self, wa, wb):
        """D(P || Q) >= (2 / ln 2) * TV(P, Q)^2."""
        da, db = same_support_pair(wa, wb)
        d = kl_divergence(da, db)
        tv = tv_distance(da, db)
        assert d + 1e-9 >= 2.0 / math.log(2.0) * tv * tv


class TestLogRatio:
    def test_value(self):
        eta = DiscreteDistribution({"a": 0.5, "b": 0.5})
        nu = DiscreteDistribution({"a": 0.125, "b": 0.875})
        assert log_ratio(eta, nu, "a") == pytest.approx(2.0)

    def test_outside_posterior_support_rejected(self):
        eta = DiscreteDistribution.point_mass("a")
        nu = DiscreteDistribution.uniform(["a", "b"])
        with pytest.raises(ValueError):
            log_ratio(eta, nu, "b")

    def test_infinite_when_prior_is_zero(self):
        eta = DiscreteDistribution.uniform(["a", "b"])
        nu = DiscreteDistribution.point_mass("a")
        assert log_ratio(eta, nu, "b") == math.inf

    @given(weights, weights)
    def test_expectation_is_kl(self, wa, wb):
        da, db = same_support_pair(wa, wb)
        expectation = sum(
            p * log_ratio(da, db, x) for x, p in da.items()
        )
        assert expectation == pytest.approx(kl_divergence(da, db), abs=1e-9)


class TestEquationOne:
    """Eq. (1): I(X; Y) equals the expected posterior-vs-prior divergence."""

    @given(pair_weights)
    def test_two_code_paths_agree(self, w):
        j = JointDistribution(w, names=["x", "y"], normalize=True)
        direct = mutual_information(j, "x", "y")
        via_divergence = mi_via_posterior_divergence(j, "x", "y")
        assert direct == pytest.approx(via_divergence, abs=1e-8)

    @given(pair_weights)
    def test_both_directions_agree(self, w):
        j = JointDistribution(w, names=["x", "y"], normalize=True)
        forward = mi_via_posterior_divergence(j, "x", "y")
        backward = mi_via_posterior_divergence(j, "y", "x")
        assert forward == pytest.approx(backward, abs=1e-8)

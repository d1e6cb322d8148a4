"""Tests for the closed-form information costs."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import conditional_information_cost
from repro.lowerbounds import (
    and_hard_distribution,
    first_zero_distribution_given_z,
    sequential_and_cic_closed_form,
)
from repro.protocols import SequentialAndProtocol


class TestFirstZeroDistribution:
    @given(st.integers(2, 40), st.data())
    def test_normalized(self, k, data):
        z = data.draw(st.integers(0, k - 1))
        probs = first_zero_distribution_given_z(k, z)
        assert len(probs) == z + 1
        assert sum(probs) == pytest.approx(1.0)

    def test_values(self):
        # k = 4, z = 2: P(J=0) = 1/4, P(J=1) = 3/16, P(J=2) = 9/16.
        probs = first_zero_distribution_given_z(4, 2)
        assert probs == pytest.approx([0.25, 0.1875, 0.5625])

    def test_validation(self):
        with pytest.raises(ValueError):
            first_zero_distribution_given_z(1, 0)
        with pytest.raises(ValueError):
            first_zero_distribution_given_z(4, 4)


class TestClosedFormCIC:
    @pytest.mark.parametrize("k", [2, 3, 5, 8, 11])
    def test_matches_exact_machinery(self, k):
        """The closed form equals the exact protocol-tree CIC on the
        untruncated hard distribution."""
        exact = conditional_information_cost(
            SequentialAndProtocol(k), and_hard_distribution(k)
        )
        assert sequential_and_cic_closed_form(k) == pytest.approx(
            exact, abs=1e-9
        )

    def test_scales_to_large_k(self):
        """Large-k values remain Omega(log k) with a stable constant."""
        for k in (256, 4096, 65536):
            value = sequential_and_cic_closed_form(k)
            assert value >= 0.3 * math.log2(k)
            assert value <= math.log2(k + 1)

    def test_monotone_in_k(self):
        values = [sequential_and_cic_closed_form(k) for k in (4, 16, 64, 256)]
        assert values == sorted(values)

    def test_quantifies_truncation_error(self):
        """The <=3-zero truncation used by E2 for large k under-counts by
        only a small amount (conditioning can only reduce CIC)."""
        k = 16
        truncated_mu = and_hard_distribution(k, max_zeros=3)
        truncated = conditional_information_cost(
            SequentialAndProtocol(k), truncated_mu
        )
        closed = sequential_and_cic_closed_form(k)
        assert truncated <= closed + 1e-9
        assert closed - truncated < 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            sequential_and_cic_closed_form(1)


class TestClosedFormMemo:
    @pytest.mark.parametrize("k", [2, 3, 256, 4096, 65536])
    def test_memo_equals_the_direct_sum(self, k):
        direct = sequential_and_cic_closed_form.__wrapped__(k)
        assert sequential_and_cic_closed_form(k) == direct
        assert sequential_and_cic_closed_form(k) == direct

    def test_invalid_k_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError):
                sequential_and_cic_closed_form(1)

    def test_warm_e2_rerun_evaluates_no_closed_form(self, tmp_path):
        from repro.experiments import e2_and_information as e2
        from repro.store import ResultStore

        store = ResultStore(str(tmp_path / "store"))
        sequential_and_cic_closed_form.cache_clear()
        cold = e2.run(ks=(2, 3), store=store).render()
        assert sequential_and_cic_closed_form.cache_info().misses == 3
        warm = e2.run(ks=(2, 3), store=store).render()
        assert sequential_and_cic_closed_form.cache_info().misses == 3
        assert warm == cold

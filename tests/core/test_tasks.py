"""Tests for the task (function) definitions."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    all_boolean_inputs,
    and_task,
    boolean_inputs_with_zero_count,
    disjointness_task,
    or_task,
    set_to_mask,
)


class TestBooleanTasks:
    def test_and(self):
        t = and_task(3)
        assert t.evaluate((1, 1, 1)) == 1
        assert t.evaluate((1, 0, 1)) == 0
        assert t.num_players == 3

    def test_or(self):
        t = or_task(3)
        assert t.evaluate((0, 0, 0)) == 0
        assert t.evaluate((0, 1, 0)) == 1

    def test_domain_enumeration(self):
        t = and_task(3)
        domain = t.domain()
        assert len(domain) == 8
        assert (0, 1, 1) in domain

    def test_all_boolean_inputs_count(self):
        assert len(list(all_boolean_inputs(5))) == 32

    def test_zero_count_class(self):
        inputs = list(boolean_inputs_with_zero_count(5, 2))
        assert len(inputs) == 10          # C(5, 2)
        assert all(x.count(0) == 2 for x in inputs)

    def test_de_morgan_relation(self):
        """AND(x) = 1 - OR(1 - x): sanity tying the two tasks together."""
        t_and, t_or = and_task(4), or_task(4)
        for x in all_boolean_inputs(4):
            flipped = tuple(1 - b for b in x)
            assert t_and.evaluate(x) == 1 - t_or.evaluate(flipped)


class TestMaskConversion:
    def test_roundtrip(self):
        mask = set_to_mask({0, 3, 7}, 10)
        assert mask == (1 | 8 | 128)

    def test_out_of_range_coordinate(self):
        with pytest.raises(ValueError):
            set_to_mask({10}, 10)

    @given(st.integers(1, 20), st.data())
    def test_roundtrip_random(self, n, data):
        coords = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
        mask = set_to_mask(coords, n)
        assert {j for j in range(n) if mask >> j & 1} == coords


class TestDisjointness:
    def test_definition_matches_paper_formula(self):
        """DISJ = ¬ ∨_j ∧_i X_i^j."""
        n, k = 4, 3
        t = disjointness_task(n, k)
        for masks in itertools.product(range(1 << n), repeat=k):
            spelled_out = 1 - max(
                min((masks[i] >> j) & 1 for i in range(k))
                for j in range(n)
            )
            assert t.evaluate(masks) == spelled_out

    def test_disjoint_sets(self):
        t = disjointness_task(6, 2)
        a = set_to_mask({0, 1}, 6)
        b = set_to_mask({3, 4}, 6)
        assert t.evaluate((a, b)) == 1

    def test_intersecting_sets(self):
        t = disjointness_task(6, 3)
        masks = tuple(set_to_mask({2, i}, 6) for i in (0, 1, 3))
        assert t.evaluate(masks) == 0

    def test_empty_sets_are_disjoint(self):
        t = disjointness_task(4, 3)
        assert t.evaluate((0, 0, 0)) == 1

    def test_enumeration_limit(self):
        small = disjointness_task(2, 2)
        assert len(small.domain()) == 16
        large = disjointness_task(100, 5)
        with pytest.raises(ValueError):
            large.domain()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            disjointness_task(0, 3)
        with pytest.raises(ValueError):
            disjointness_task(3, 0)

"""Seeded property tests for the coding layer.

The hand-written unit tests in this directory pin known codeword tables;
these tests instead sweep randomized instances (seeded through
``repro.check.generator.derive_rng``, so failures replay exactly) and
assert the algebraic properties the rest of the library leans on:
round-trips, prefix-freeness, code widths, and rank/unrank bijections.
"""

import math

import pytest

from repro.check.generator import derive_rng
from repro.coding import (
    BitReader,
    binomial,
    decode_elias_gamma,
    elias_gamma_length,
    encode_elias_gamma,
    subset_code_width,
    subset_rank,
    subset_unrank,
)
from repro.core.model import check_prefix_free


class TestVarintProperties:
    @pytest.mark.parametrize("trial", range(30))
    def test_round_trips_and_lengths(self, trial):
        rng = derive_rng("varint-props", trial)
        n = rng.randrange(1, 1 << rng.randrange(1, 20))
        reader = BitReader(encode_elias_gamma(n))
        assert decode_elias_gamma(reader) == n
        reader.expect_exhausted()
        assert len(encode_elias_gamma(n)) == elias_gamma_length(n)

    def test_gamma_codewords_prefix_free(self):
        check_prefix_free(encode_elias_gamma(n) for n in range(1, 200))

class TestSubsetCodecProperties:
    @pytest.mark.parametrize("trial", range(30))
    def test_rank_unrank_bijection(self, trial):
        rng = derive_rng("subset-props", trial)
        n = rng.randrange(1, 16)
        m = rng.randrange(0, n + 1)
        rank = rng.randrange(binomial(n, m))
        subset = subset_unrank(rank, n, m)
        assert len(subset) == m
        assert subset == sorted(set(subset))
        assert all(0 <= x < n for x in subset)
        assert subset_rank(subset, n) == rank

    def test_width_is_information_theoretically_tight(self):
        for n in range(1, 12):
            for m in range(n + 1):
                width = subset_code_width(n, m)
                assert width >= math.log2(binomial(n, m)) - 1e-9
                assert width <= math.log2(binomial(n, m)) + 1.0

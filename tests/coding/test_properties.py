"""Seeded property tests for the coding layer.

The hand-written unit tests in this directory pin known codeword tables;
these tests instead sweep randomized instances (seeded through
``repro.check.generator.derive_rng``, so failures replay exactly) and
assert the algebraic properties the rest of the library leans on:
round-trips, prefix-freeness, Shannon bounds, and rank/unrank bijections.
"""

import math

import pytest

from repro.check.generator import derive_rng
from repro.coding import (
    BitReader,
    HuffmanCode,
    binomial,
    decode_elias_delta,
    decode_elias_gamma,
    decode_subset,
    elias_gamma_length,
    encode_elias_delta,
    encode_elias_gamma,
    encode_subset,
    subset_code_width,
    subset_rank,
    subset_unrank,
)
from repro.core.model import check_prefix_free
from repro.information import entropy
from repro.information.distribution import DiscreteDistribution


def _random_distribution(rng, size):
    weights = {i: rng.random() + 1e-3 for i in range(size)}
    return DiscreteDistribution(weights, normalize=True)


class TestHuffmanProperties:
    @pytest.mark.parametrize("trial", range(20))
    def test_round_trip_and_prefix_freeness(self, trial):
        rng = derive_rng("huffman-props", trial)
        dist = _random_distribution(rng, rng.randrange(2, 12))
        code = HuffmanCode.from_distribution(dist)
        check_prefix_free(code.codeword(s) for s in code.symbols())
        symbols = [
            rng.choice(code.symbols()) for _ in range(rng.randrange(1, 30))
        ]
        bits = code.encode(symbols)
        assert code.decode(bits, len(symbols)) == symbols
        # Streaming decode agrees and consumes exactly the encoding.
        reader = BitReader(bits)
        assert [code.decode_one(reader) for _ in symbols] == symbols
        reader.expect_exhausted()

    @pytest.mark.parametrize("trial", range(20))
    def test_expected_length_within_shannon_bounds(self, trial):
        """H(p) <= E[len] < H(p) + 1 — Huffman optimality."""
        rng = derive_rng("huffman-shannon", trial)
        dist = _random_distribution(rng, rng.randrange(2, 12))
        code = HuffmanCode.from_distribution(dist)
        h = entropy(dist)
        mean = code.expected_length(dist)
        assert h - 1e-9 <= mean < h + 1.0


class TestVarintProperties:
    @pytest.mark.parametrize("trial", range(30))
    def test_round_trips_and_lengths(self, trial):
        rng = derive_rng("varint-props", trial)
        n = rng.randrange(1, 1 << rng.randrange(1, 20))
        for encode, decode in (
            (encode_elias_gamma, decode_elias_gamma),
            (encode_elias_delta, decode_elias_delta),
        ):
            reader = BitReader(encode(n))
            assert decode(reader) == n
            reader.expect_exhausted()
        assert len(encode_elias_gamma(n)) == elias_gamma_length(n)

    def test_gamma_codewords_prefix_free(self):
        check_prefix_free(encode_elias_gamma(n) for n in range(1, 200))

    def test_delta_codewords_prefix_free(self):
        check_prefix_free(encode_elias_delta(n) for n in range(1, 200))

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

    @pytest.mark.parametrize("trial", range(30))
    def test_encode_decode_round_trip(self, trial):
        rng = derive_rng("subset-codec", trial)
        n = rng.randrange(1, 16)
        m = rng.randrange(0, n + 1)
        subset = sorted(rng.sample(range(n), m))
        bits = encode_subset(subset, n)
        assert len(bits) == subset_code_width(n, m)
        reader = BitReader(bits)
        assert decode_subset(reader, n, m) == subset
        reader.expect_exhausted()

    def test_width_is_information_theoretically_tight(self):
        for n in range(1, 12):
            for m in range(n + 1):
                width = subset_code_width(n, m)
                assert width >= math.log2(binomial(n, m)) - 1e-9
                assert width <= math.log2(binomial(n, m)) + 1.0

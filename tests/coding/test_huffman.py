"""Tests for Huffman coding — reference [20], the classical single-shot
compression baseline the paper's Section 6 starts from."""

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.coding import BitReader, HuffmanCode
from repro.information import DiscreteDistribution, entropy

weights = st.dictionaries(
    st.integers(0, 30),
    st.floats(min_value=1e-4, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=20,
)

#: A 64-symbol alphabet, wider than ``weights`` draws.
_rng = random.Random(3)
WIDE_WEIGHTS = {i: _rng.random() + 0.01 for i in range(64)}


class TestHuffman:
    def test_dyadic_distribution_codeword_lengths(self):
        dist = DiscreteDistribution({"a": 0.5, "b": 0.25, "c": 0.125,
                                     "d": 0.125})
        code = HuffmanCode.from_distribution(dist)
        assert len(code.codeword("a")) == 1
        assert len(code.codeword("b")) == 2
        assert len(code.codeword("c")) == 3
        assert len(code.codeword("d")) == 3

    def test_single_symbol(self):
        code = HuffmanCode.from_distribution(
            DiscreteDistribution.point_mass("only")
        )
        assert code.codeword("only") == "0"

    def test_unknown_symbol(self):
        code = HuffmanCode.from_distribution(
            DiscreteDistribution.point_mass("x")
        )
        with pytest.raises(KeyError):
            code.codeword("y")

    def test_prefix_free_validation(self):
        with pytest.raises(ValueError, match="prefix-free"):
            HuffmanCode({"a": "0", "b": "01"})

    def test_duplicate_codewords_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            HuffmanCode({"a": "0", "b": "0"})

    def test_encode_decode_stream(self):
        dist = DiscreteDistribution({"a": 0.5, "b": 0.3, "c": 0.2})
        code = HuffmanCode.from_distribution(dist)
        symbols = ["a", "c", "b", "a", "a", "c"]
        bits = code.encode(symbols)
        assert code.decode(bits, len(symbols)) == symbols

    def test_decode_one(self):
        dist = DiscreteDistribution({"a": 0.5, "b": 0.5})
        code = HuffmanCode.from_distribution(dist)
        reader = BitReader(code.codeword("b"))
        assert code.decode_one(reader) == "b"

    @given(weights)
    def test_huffman_theorem(self, w):
        """H(X) <= E[len] < H(X) + 1 — the [20] guarantee the paper
        quotes as the one-way baseline."""
        dist = DiscreteDistribution(w, normalize=True)
        code = HuffmanCode.from_distribution(dist)
        expected = code.expected_length(dist)
        h = entropy(dist)
        if len(dist) == 1:
            # Our single-symbol code spends 1 bit.
            assert expected == pytest.approx(1.0)
        else:
            assert h - 1e-9 <= expected < h + 1.0

    @given(weights)
    @example(WIDE_WEIGHTS)
    def test_roundtrip_random_streams(self, w):
        dist = DiscreteDistribution(w, normalize=True)
        code = HuffmanCode.from_distribution(dist)
        rng = random.Random(0)
        symbols = dist.sample_many(rng, 50)
        assert code.decode(code.encode(symbols), 50) == symbols

    @given(weights)
    def test_optimality_vs_shuffled_code(self, w):
        """Huffman's expected length never exceeds that of the same code
        tree with permuted symbol assignment."""
        dist = DiscreteDistribution(w, normalize=True)
        if len(dist) < 3:
            return
        code = HuffmanCode.from_distribution(dist)
        symbols = sorted(dist.support(), key=repr)
        lengths = sorted(len(code.codeword(s)) for s in symbols)
        # Assign the longest codewords to the most probable symbols.
        by_probability = sorted(symbols, key=lambda s: -dist[s])
        adversarial = sum(
            p_len * dist[sym]
            for p_len, sym in zip(sorted(lengths, reverse=True),
                                  by_probability)
        )
        assert code.expected_length(dist) <= adversarial + 1e-9

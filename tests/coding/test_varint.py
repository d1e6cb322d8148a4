"""Round-trip and length tests for the variable-length integer codes."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.coding import (
    BitReader,
    decode_elias_delta,
    decode_elias_gamma,
    decode_golomb_rice,
    decode_signed_elias_gamma,
    decode_unary,
    elias_delta_length,
    elias_gamma_length,
    encode_elias_delta,
    encode_elias_gamma,
    encode_golomb_rice,
    encode_signed_elias_gamma,
    encode_unary,
    zigzag_decode,
    zigzag_encode,
)


class TestUnary:
    def test_known_codes(self):
        assert encode_unary(0) == "0"
        assert encode_unary(3) == "1110"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_unary(-1)

    @given(st.integers(0, 200))
    def test_roundtrip(self, value):
        r = BitReader(encode_unary(value))
        assert decode_unary(r) == value
        r.expect_exhausted()


class TestEliasGamma:
    def test_known_codes(self):
        assert encode_elias_gamma(1) == "1"
        assert encode_elias_gamma(2) == "010"
        assert encode_elias_gamma(5) == "00101"

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            encode_elias_gamma(0)

    @given(st.integers(1, 2**30))
    def test_roundtrip(self, value):
        r = BitReader(encode_elias_gamma(value))
        assert decode_elias_gamma(r) == value
        r.expect_exhausted()

    @given(st.integers(1, 2**30))
    def test_length_formula(self, value):
        assert len(encode_elias_gamma(value)) == elias_gamma_length(value)

    @given(st.integers(1, 2**20))
    def test_length_is_2log_plus_1(self, value):
        assert elias_gamma_length(value) == 2 * (value.bit_length() - 1) + 1

    @given(st.lists(st.integers(1, 1000), min_size=1, max_size=8))
    def test_self_delimiting_concatenation(self, values):
        stream = "".join(encode_elias_gamma(v) for v in values)
        r = BitReader(stream)
        decoded = [decode_elias_gamma(r) for _ in values]
        assert decoded == values
        r.expect_exhausted()


class TestEliasDelta:
    def test_known_codes(self):
        assert encode_elias_delta(1) == "1"
        assert encode_elias_delta(2) == "0100"

    @given(st.integers(1, 2**40))
    @example((1 << 30) - 1)
    def test_roundtrip(self, value):
        r = BitReader(encode_elias_delta(value))
        assert decode_elias_delta(r) == value
        r.expect_exhausted()

    @given(st.integers(1, 2**40))
    def test_length_formula(self, value):
        assert len(encode_elias_delta(value)) == elias_delta_length(value)

    @given(st.integers(16, 2**40))
    def test_asymptotically_shorter_than_gamma(self, value):
        assert elias_delta_length(value) <= elias_gamma_length(value)


class TestGolombRice:
    @given(st.integers(0, 10_000), st.integers(0, 8))
    def test_roundtrip(self, value, shift):
        r = BitReader(encode_golomb_rice(value, shift))
        assert decode_golomb_rice(r, shift) == value
        r.expect_exhausted()

    def test_shift_zero_is_unary(self):
        assert encode_golomb_rice(4, 0) == encode_unary(4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_golomb_rice(-1, 2)


class TestZigZag:
    def test_known_values(self):
        assert [zigzag_encode(v) for v in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]

    @given(st.integers(-(2**30), 2**30))
    def test_roundtrip(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value

    def test_decode_negative_rejected(self):
        with pytest.raises(ValueError):
            zigzag_decode(-1)

    @given(st.integers(-(2**20), 2**20))
    def test_signed_elias_gamma_roundtrip(self, value):
        r = BitReader(encode_signed_elias_gamma(value))
        assert decode_signed_elias_gamma(r) == value
        r.expect_exhausted()

    def test_signed_code_handles_the_footnote4_case(self):
        """The Lemma 7 log-ratio s may be negative (footnote 4)."""
        for s in (-7, -1, 0, 1, 13):
            r = BitReader(encode_signed_elias_gamma(s))
            assert decode_signed_elias_gamma(r) == s

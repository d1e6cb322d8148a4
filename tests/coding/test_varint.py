"""Round-trip and length tests for the variable-length integer codes."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.coding import (
    BitReader,
    decode_elias_delta,
    decode_elias_gamma,
    elias_gamma_length,
    encode_elias_delta,
    encode_elias_gamma,
    zigzag_encode,
)


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

    @given(st.integers(16, 2**40))
    def test_asymptotically_shorter_than_gamma(self, value):
        assert len(encode_elias_delta(value)) <= elias_gamma_length(value)


class TestZigZag:
    def test_known_values(self):
        assert [zigzag_encode(v) for v in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]

    @given(st.integers(-(2**30), 2**30))
    def test_roundtrip(self, value):
        encoded = zigzag_encode(value)
        assert encoded >= 0
        decoded = (encoded >> 1) if encoded % 2 == 0 else -((encoded + 1) >> 1)
        assert decoded == value

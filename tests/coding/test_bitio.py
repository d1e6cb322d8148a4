"""Tests for the bit-level reader/writer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding import BitReader, BitWriter


class TestBitWriter:
    def test_write_bits_roundtrip(self):
        w = BitWriter()
        w.write_bit(1).write_bit(0).write_bits("110")
        assert w.getvalue() == "10110"
        assert len(w) == 5

    def test_write_uint_fixed_width(self):
        w = BitWriter()
        w.write_uint(5, 4)
        assert w.getvalue() == "0101"

    def test_write_uint_zero_width(self):
        w = BitWriter()
        w.write_uint(0, 0)
        assert w.getvalue() == ""

    def test_write_uint_overflow_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            BitWriter().write_uint(16, 4)

    def test_write_uint_negative_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_uint(-1, 4)

    def test_invalid_bit(self):
        with pytest.raises(ValueError):
            BitWriter().write_bit(2)

    def test_invalid_bit_string(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits("012")

    def test_write_flag(self):
        w = BitWriter()
        w.write_flag(True).write_flag(False)
        assert w.getvalue() == "10"


class TestBitReader:
    def test_read_sequence(self):
        r = BitReader("10110")
        assert r.read_bit() == 1
        assert r.read_bits(2) == "01"
        assert r.read_uint(2) == 2
        r.expect_exhausted()

    def test_read_past_end(self):
        r = BitReader("1")
        r.read_bit()
        with pytest.raises(EOFError):
            r.read_bit()

    def test_read_bits_past_end(self):
        with pytest.raises(EOFError):
            BitReader("10").read_bits(3)

    def test_expect_exhausted_failure(self):
        r = BitReader("10")
        r.read_bit()
        with pytest.raises(ValueError, match="unread"):
            r.expect_exhausted()

    def test_position_and_remaining(self):
        r = BitReader("1010")
        assert r.remaining == 4
        r.read_bits(3)
        assert r.position == 3
        assert r.remaining == 1

    def test_read_flag(self):
        r = BitReader("10")
        assert r.read_flag() is True
        assert r.read_flag() is False

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            BitReader("abc")

    def test_zero_width_uint(self):
        r = BitReader("")
        assert r.read_uint(0) == 0


class TestRoundTripProperties:
    @given(st.lists(st.integers(0, 1), max_size=64))
    def test_bit_list_roundtrip(self, bits):
        w = BitWriter()
        for b in bits:
            w.write_bit(b)
        r = BitReader(w.getvalue())
        assert [r.read_bit() for _ in bits] == bits
        r.expect_exhausted()

    @given(st.integers(0, 2**40 - 1), st.integers(40, 64))
    def test_uint_roundtrip(self, value, width):
        w = BitWriter()
        w.write_uint(value, width)
        r = BitReader(w.getvalue())
        assert r.read_uint(width) == value
        r.expect_exhausted()


class TestBitops:
    def test_bits_of(self):
        from repro.coding.bitops import bits_of

        assert bits_of(0) == []
        assert bits_of(0b10110) == [1, 2, 4]
        with pytest.raises(ValueError):
            bits_of(-1)

    def test_popcount(self):
        from repro.coding.bitops import popcount

        assert popcount(0) == 0
        assert popcount(0b1011101) == 5
        with pytest.raises(ValueError):
            popcount(-5)

    @given(st.integers(0, 2**64))
    def test_consistency(self, mask):
        from repro.coding.bitops import bits_of, popcount

        positions = bits_of(mask)
        assert len(positions) == popcount(mask)
        assert sum(1 << p for p in positions) == mask


#: Non-str inputs and the exception each bit-string check site raises
#: for them: the reader/writer and wire frames raise TypeError, while
#: Message reaches ``.strip`` directly (AttributeError, or TypeError
#: for bytes).
NON_STR_BITS = [None, 5, 1.5, b"01", [0, 1]]


class TestNonStrBits:
    @pytest.mark.parametrize("bits", NON_STR_BITS, ids=repr)
    def test_bitio(self, bits):
        with pytest.raises(TypeError):
            BitReader(bits)
        with pytest.raises(TypeError):
            BitWriter().write_bits(bits)

    @pytest.mark.parametrize("bits", NON_STR_BITS, ids=repr)
    def test_frame_payload(self, bits):
        from repro.net.framing import Frame, FrameKind

        with pytest.raises(TypeError):
            Frame(FrameKind.APPEND, payload=bits)

    @pytest.mark.parametrize("bits", NON_STR_BITS, ids=repr)
    def test_message(self, bits):
        from repro.core import Message

        error = TypeError if isinstance(bits, bytes) else AttributeError
        with pytest.raises(Exception) as info:
            Message(0, bits)
        assert type(info.value) is error

    @pytest.mark.parametrize("bits", ["2", "01a", " 01", "0 1", "\n"])
    def test_non_binary_characters_rejected(self, bits):
        from repro.core import Message
        from repro.net.framing import Frame, FrameKind

        for build in (
            BitReader,
            BitWriter().write_bits,
            lambda b: Frame(FrameKind.APPEND, payload=b),
            lambda b: Message(0, b),
        ):
            with pytest.raises(ValueError):
                build(bits)

"""Value semantics of :class:`Message` and :class:`Link`, and the one
rule every bit-string check applies.

Messages and links are dictionary keys and set members throughout the
exact analysis, so their hash, equality, immutability, ``repr`` and
pickling are part of the contract: a change of representation must
keep every one of them, or set orders and digests move.
"""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding import BitReader, BitWriter
from repro.coding.bitio import is_bit_string
from repro.core.model import BOARD_LINK, Link, Message
from repro.net.framing import Frame, FrameKind

MESSAGES = [
    Message(0, "1"),
    Message(3, "0110"),
    Message(2, "1" * 300, Link(0, 2)),
    Message(4, "01", Link(4, 1)),
]
LINKS = [Link(0, 1), Link(5, 2), Link(7, 3)]


class TestMessageValue:
    @pytest.mark.parametrize("message", MESSAGES, ids=repr)
    def test_hash_is_the_field_tuple_hash(self, message):
        assert hash(message) == hash(
            (message.speaker, message.bits, message.link)
        )

    def test_equality_is_by_fields(self):
        assert Message(1, "01") == Message(1, "01")
        assert Message(1, "01") == Message(1, "01", BOARD_LINK)
        assert Message(1, "01") != Message(2, "01")
        assert Message(1, "01") != Message(1, "10")
        assert Message(1, "01") != Message(1, "01", Link(0, 1))
        assert Message(1, "01", Link(1, 0)) == Message(1, "01", Link(0, 1))
        assert len({Message(1, "01"), Message(1, "01"), Message(0, "01")}) == 2

    @pytest.mark.parametrize("field", ["speaker", "bits", "link", "extra"])
    def test_immutable(self, field):
        message = Message(0, "1")
        with pytest.raises(AttributeError):
            setattr(message, field, 1)
        assert message == Message(0, "1")

    def test_repr(self):
        assert repr(Message(0, "01")) == (
            "Message(speaker=0, bits='01', link=BOARD_LINK)"
        )
        assert repr(Message(2, "1", Link(2, 0))) == (
            "Message(speaker=2, bits='1', link=Link(0,2))"
        )

    @pytest.mark.parametrize("message", MESSAGES, ids=repr)
    @pytest.mark.parametrize("proto", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, message, proto):
        back = pickle.loads(pickle.dumps(message, protocol=proto))
        assert back == message
        assert hash(back) == hash(message)
        assert type(back) is Message
        assert (back.link is BOARD_LINK) == (message.link is BOARD_LINK)

    @pytest.mark.parametrize("message", MESSAGES, ids=repr)
    def test_copies_are_equal(self, message):
        assert copy.copy(message) == message
        assert copy.deepcopy(message) == message

    @pytest.mark.parametrize("message", MESSAGES, ids=repr)
    def test_len_is_the_bit_count(self, message):
        assert len(message) == len(message.bits)

    def test_pickle_arguments_are_the_fields(self):
        # Not ``tuple(self)``: that preallocates by ``len``, the bit count.
        message = Message(1, "1" * 100_000, Link(0, 1))
        assert message.__getnewargs__() == (1, "1" * 100_000, Link(0, 1))

    def test_keyword_construction(self):
        assert Message(speaker=1, bits="0") == Message(1, "0")
        assert Message(speaker=1, bits="0", link=Link(1, 0)) == Message(
            1, "0", Link(0, 1)
        )
        assert Message(1, bits="0").link is BOARD_LINK

    def test_constructor_checks_stay(self):
        with pytest.raises(ValueError, match="speaker index"):
            Message(-1, "0")
        with pytest.raises(ValueError, match="0/1 string"):
            Message(0, "012")
        with pytest.raises(ValueError, match="Link or BOARD_LINK"):
            Message(0, "0", (0, 1))


class TestLinkValue:
    @pytest.mark.parametrize("link", LINKS, ids=repr)
    def test_hash_is_the_endpoint_tuple_hash(self, link):
        assert hash(link) == hash((link.a, link.b))

    def test_equality_is_by_normalized_endpoints(self):
        assert Link(0, 1) == Link(1, 0)
        assert Link(0, 1) != Link(0, 2)
        assert len({Link(0, 1), Link(1, 0), Link(1, 2)}) == 2

    @pytest.mark.parametrize("field", ["a", "b", "extra"])
    def test_immutable(self, field):
        link = Link(0, 1)
        with pytest.raises(AttributeError):
            setattr(link, field, 5)
        assert link == Link(0, 1)

    def test_repr(self):
        assert repr(Link(3, 1)) == "Link(1,3)"

    @pytest.mark.parametrize("link", LINKS, ids=repr)
    @pytest.mark.parametrize("proto", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, link, proto):
        back = pickle.loads(pickle.dumps(link, protocol=proto))
        assert back == link and type(back) is Link
        assert (back.a, back.b) == (link.a, link.b)

    def test_keyword_construction(self):
        assert Link(a=3, b=1) == Link(1, 3)
        assert Link(b=0, a=2).endpoints == (0, 2)

    def test_constructor_checks_stay(self):
        with pytest.raises(ValueError, match=">= 0"):
            Link(-1, 2)
        with pytest.raises(ValueError, match="distinct"):
            Link(2, 2)


# ----------------------------------------------------------------------
# The bit-string rule: a str is a bit string iff ``not s.strip("01")``.
# Every surface that takes bits (reader, writer,
# messages, wire frames) must accept exactly those strings.
# ----------------------------------------------------------------------

def _insert(bits, index, char):
    index = min(index, len(bits))
    return bits[:index] + char + bits[index:]


NEAR_MISS_CHARS = [
    "", " ", "_", "\t", "\n", "\x00", "2", "a", "-", "+",
    "é", "٠", "１", "⁰", "\ud800", "\U0001f600",
]

CANDIDATES = st.one_of(
    st.text(),
    st.text(alphabet=" _01\n\té", max_size=64),
    st.text(alphabet="01", max_size=4096),
    st.builds(
        _insert,
        st.text(alphabet="01", max_size=4096),
        st.integers(min_value=0, max_value=4096),
        st.sampled_from(NEAR_MISS_CHARS),
    ),
)


def _accepts(build, bits):
    try:
        build(bits)
    except ValueError:
        return False
    return True


SURFACES = {
    "reader": BitReader,
    "writer": lambda bits: BitWriter().write_bits(bits),
    "message": lambda bits: Message(0, bits),
    "frame": lambda bits: Frame(FrameKind.APPEND, payload=bits),
}


@pytest.mark.parametrize("surface", sorted(SURFACES))
@given(bits=CANDIDATES)
def test_every_surface_accepts_exactly_the_bit_strings(surface, bits):
    assert _accepts(SURFACES[surface], bits) == (not bits.strip("01"))


@pytest.mark.parametrize("surface", sorted(SURFACES))
@pytest.mark.parametrize("length", [0, 1, 7, 15, 16, 17, 64, 512, 2304])
def test_one_foreign_character_anywhere(surface, length):
    build = SURFACES[surface]
    valid = "01" * (length // 2) + "1" * (length % 2)
    for char in NEAR_MISS_CHARS:
        for index in sorted({0, length // 2, length}):
            bits = _insert(valid, index, char)
            assert _accepts(build, bits) == (char == ""), (char, index)


@given(bits=CANDIDATES)
def test_the_validator_is_the_strip_rule(bits):
    assert is_bit_string(bits) == (not bits.strip("01"))


@pytest.mark.parametrize(
    "value,error",
    [(None, AttributeError), (5, AttributeError), ([0, 1], AttributeError),
     (b"01", TypeError), (b"01" * 40, TypeError)],
    ids=repr,
)
def test_the_validator_fails_on_non_str_as_strip_does(value, error):
    with pytest.raises(error):
        is_bit_string(value)


class TestTupleBacking:
    """Messages and links are tuples: they equal the plain tuple of
    their fields, and ``_replace`` still validates."""

    def test_equal_to_the_field_tuple(self):
        assert Message(1, "01") == (1, "01", BOARD_LINK)
        assert Link(2, 0) == (0, 2)
        assert isinstance(Message(1, "01"), tuple)

    def test_replace_validates(self):
        assert Link(0, 3)._replace(a=5) == Link(3, 5)
        with pytest.raises(ValueError):
            Link(0, 3)._replace(a=3)
        with pytest.raises(ValueError):
            Message(0, "1")._replace(bits="2")
        assert Message(0, "1")._replace(speaker=2) == Message(2, "1")

    def test_trace_fields_render_them_as_text(self):
        from repro.obs.trace import _jsonable

        assert _jsonable(Message(0, "1", Link(0, 1))) == (
            "Message(speaker=0, bits='1', link=Link(0,1))"
        )
        assert _jsonable([Link(0, 1), (0, 1)]) == ["Link(0,1)", [0, 1]]

    @pytest.mark.parametrize("value", [Link(0, 1), Message(0, "1")],
                             ids=repr)
    def test_store_keys_reject_them(self, value):
        from repro.store.keys import canonical_json

        assert canonical_json({"x": (0, 1)}) == '{"x":[0,1]}'
        with pytest.raises(ValueError, match="not canonically serializable"):
            canonical_json({"x": value})

"""Bit-level I/O used by every protocol's on-board message encoding.

In the blackboard model, communication is charged per *bit* written to the
board (Section 3 of the paper).  All protocol messages in this library are
therefore explicit bit strings, produced with :class:`BitWriter` and parsed
back with :class:`BitReader`.  A message must be decodable given only the
board contents so far, which the writer/reader pairing makes easy to audit:
every ``write_*`` call has a matching ``read_*`` call.

Bits are represented as a ``str`` of ``'0'``/``'1'`` characters.  A string
representation keeps transcripts hashable and printable (transcripts are
dictionary keys throughout the exact analysis) at simulation scales; the
library's costs are measured in *counted bits*, not in Python bytes.
"""

from __future__ import annotations

from typing import List

__all__ = ["Bits", "BitWriter", "BitReader", "is_bit_string"]

Bits = str

#: Up to this length ``strip`` is the faster check; above it, one
#: ``encode`` + ``translate`` pass (docs/performance.md).
_SHORT = 16


def is_bit_string(bits: Bits) -> bool:
    """Whether ``bits`` holds only ``'0'``/``'1'`` characters, exactly
    when ``not bits.strip("01")``, in one C-level pass.  A non-``str``
    fails as ``strip`` does (``AttributeError``; ``TypeError`` for
    bytes); ``surrogatepass`` makes a lone surrogate a non-bit byte."""
    if bits.__class__ is str and len(bits) > _SHORT:
        return not bits.encode("utf-8", "surrogatepass").translate(None, b"01")
    return not bits.strip("01")


def _validate_bits(bits: str) -> None:
    if not isinstance(bits, str):
        raise TypeError(f"bits must be a str, got {type(bits).__name__}")
    if not is_bit_string(bits):
        raise ValueError(f"not a bit string: {bits!r}")


class BitWriter:
    """Accumulates bits; ``getvalue()`` returns the final bit string."""

    __slots__ = ("_chunks",)

    def __init__(self) -> None:
        self._chunks: List[str] = []

    def write_bit(self, bit: int) -> "BitWriter":
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        self._chunks.append("1" if bit else "0")
        return self

    def write_bits(self, bits: Bits) -> "BitWriter":
        """Append a raw bit string verbatim."""
        _validate_bits(bits)
        self._chunks.append(bits)
        return self

    def write_uint(self, value: int, width: int) -> "BitWriter":
        """Append ``value`` as a fixed-width big-endian unsigned integer."""
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if value < 0 or (width < value.bit_length()):
            raise ValueError(
                f"value {value} does not fit in {width} bits"
            )
        self._chunks.append(format(value, f"0{width}b") if width else "")
        return self

    def write_flag(self, flag: bool) -> "BitWriter":
        """Append a boolean as one bit."""
        return self.write_bit(1 if flag else 0)

    def __len__(self) -> int:
        return sum(len(chunk) for chunk in self._chunks)

    def getvalue(self) -> Bits:
        """The bit string written so far."""
        return "".join(self._chunks)


class BitReader:
    """Sequentially consumes a bit string produced by :class:`BitWriter`."""

    __slots__ = ("_bits", "_pos")

    def __init__(self, bits: Bits) -> None:
        _validate_bits(bits)
        self._bits = bits
        self._pos = 0

    @property
    def position(self) -> int:
        """The number of bits consumed so far."""
        return self._pos

    @property
    def remaining(self) -> int:
        """The number of bits not yet consumed."""
        return len(self._bits) - self._pos

    def read_bit(self) -> int:
        """Consume and return one bit."""
        if self._pos >= len(self._bits):
            raise EOFError("attempted to read past the end of the bit string")
        bit = 1 if self._bits[self._pos] == "1" else 0
        self._pos += 1
        return bit

    def read_bits(self, count: int) -> Bits:
        """Consume and return ``count`` raw bits."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if self._pos + count > len(self._bits):
            raise EOFError(
                f"requested {count} bits but only {self.remaining} remain"
            )
        chunk = self._bits[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def read_uint(self, width: int) -> int:
        """Consume a fixed-width big-endian unsigned integer."""
        if width == 0:
            return 0
        return int(self.read_bits(width), 2)

    def read_flag(self) -> bool:
        """Consume one bit as a boolean."""
        return self.read_bit() == 1

    def expect_exhausted(self) -> None:
        """Raise if any bits remain; used to assert codecs are exact."""
        if self.remaining:
            raise ValueError(
                f"{self.remaining} unread bits remain: "
                f"{self._bits[self._pos:]!r}"
            )

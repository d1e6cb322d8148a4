"""Self-delimiting variable-length integer codes.

The paper's protocols need variable-length codes in two places:

* the Lemma 7 sampler writes the block index :math:`\\lceil i / |U| \\rceil`
  (geometric, expectation ~1) and the log-ratio ``s`` ("using a
  variable-length encoding", footnote 4) — both call for codes whose length
  grows logarithmically with the value;
* the Section 5 protocol's bookkeeping ("pass" flags and batch headers).

We provide Elias gamma and Elias delta, plus a zig-zag transform for
signed values (``s`` may be negative, see footnote 4).  Every encoder is
paired with a decoder and the test suite round-trips them exhaustively
and property-based.
"""

from __future__ import annotations

from .bitio import BitReader, Bits

__all__ = [
    "encode_elias_gamma",
    "decode_elias_gamma",
    "elias_gamma_length",
    "encode_elias_delta",
    "decode_elias_delta",
    "zigzag_encode",
]


# ----------------------------------------------------------------------
# Elias gamma: codes value >= 1 in 2*floor(log2 v) + 1 bits.
# ----------------------------------------------------------------------
def encode_elias_gamma(value: int) -> Bits:
    """Elias gamma code for ``value >= 1``."""
    if value < 1:
        raise ValueError(f"Elias gamma requires value >= 1, got {value}")
    binary = bin(value)[2:]
    return "0" * (len(binary) - 1) + binary


def decode_elias_gamma(reader: BitReader) -> int:
    """Decode an Elias-gamma-coded integer (>= 1) from ``reader``."""
    zeros = 0
    while reader.read_bit() == 0:
        zeros += 1
    if zeros == 0:
        return 1
    rest = reader.read_bits(zeros)
    return (1 << zeros) | int(rest, 2)


def elias_gamma_length(value: int) -> int:
    """The length in bits of the Elias gamma code of ``value >= 1``.

    Equals ``2 * floor(log2 value) + 1``.  Used by the fast sampler to
    charge communication without materializing the bit string.
    """
    if value < 1:
        raise ValueError(f"Elias gamma requires value >= 1, got {value}")
    return 2 * (value.bit_length() - 1) + 1


# ----------------------------------------------------------------------
# Elias delta: codes value >= 1 in log2 v + 2 log2 log2 v + O(1) bits.
# ----------------------------------------------------------------------
def encode_elias_delta(value: int) -> Bits:
    """Elias delta code for ``value >= 1``."""
    if value < 1:
        raise ValueError(f"Elias delta requires value >= 1, got {value}")
    binary = bin(value)[2:]
    return encode_elias_gamma(len(binary)) + binary[1:]


def decode_elias_delta(reader: BitReader) -> int:
    """Decode an Elias-delta-coded integer (>= 1) from ``reader``."""
    length = decode_elias_gamma(reader)
    if length == 1:
        return 1
    rest = reader.read_bits(length - 1)
    return (1 << (length - 1)) | int(rest, 2)


# ----------------------------------------------------------------------
# Signed values via zig-zag (0, -1, 1, -2, 2, ... -> 0, 1, 2, 3, 4, ...)
# ----------------------------------------------------------------------
def zigzag_encode(value: int) -> int:
    """Map a signed integer to an unsigned one, preserving magnitude order."""
    return (value << 1) if value >= 0 else ((-value << 1) - 1)

"""Bit-level coding substrate: bit I/O, variable-length integer codes
and combinadic subset ranking (used by the Section 5 protocol)."""

from .bitio import BitReader, BitWriter, Bits
from .integrity import CRC_BYTES, IntegrityError, crc32, seal, unseal
from .combinatorial import (
    binomial,
    subset_code_width,
    subset_rank,
    subset_unrank,
)
from .varint import (
    decode_elias_gamma,
    elias_gamma_length,
    encode_elias_gamma,
    zigzag_encode,
)

__all__ = [
    "Bits",
    "BitReader",
    "BitWriter",
    "binomial",
    "subset_rank",
    "subset_unrank",
    "subset_code_width",
    "CRC_BYTES",
    "IntegrityError",
    "crc32",
    "seal",
    "unseal",
    "encode_elias_gamma",
    "decode_elias_gamma",
    "elias_gamma_length",
    "zigzag_encode",
]

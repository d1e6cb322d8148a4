"""Bit-level coding substrate: bit I/O, variable-length integer codes,
combinadic subset encoding (used by the Section 5 protocol), and Huffman
coding (reference [20])."""

from .bitio import BitReader, BitWriter, Bits, concat_bits
from .integrity import CRC_BYTES, IntegrityError, crc32, seal, unseal
from .combinatorial import (
    binomial,
    decode_subset,
    encode_subset,
    subset_code_width,
    subset_rank,
    subset_unrank,
)
from .huffman import HuffmanCode
from .varint import (
    decode_elias_delta,
    decode_elias_gamma,
    elias_gamma_length,
    encode_elias_delta,
    encode_elias_gamma,
    zigzag_encode,
)

__all__ = [
    "Bits",
    "BitReader",
    "BitWriter",
    "concat_bits",
    "binomial",
    "subset_rank",
    "subset_unrank",
    "subset_code_width",
    "encode_subset",
    "decode_subset",
    "HuffmanCode",
    "CRC_BYTES",
    "IntegrityError",
    "crc32",
    "seal",
    "unseal",
    "encode_elias_gamma",
    "decode_elias_gamma",
    "elias_gamma_length",
    "encode_elias_delta",
    "decode_elias_delta",
    "zigzag_encode",
]

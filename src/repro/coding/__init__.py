"""Bit-level coding substrate: bit I/O, variable-length integer codes
and combinadic subset ranking (used by the Section 5 protocol)."""

from .._lazy import lazy_exports

_EXPORTS = {
    "bitio": ("BitReader", "BitWriter", "Bits"),
    "integrity": ("CRC_BYTES", "IntegrityError", "crc32", "seal", "unseal"),
    "combinatorial": (
        "binomial",
        "subset_code_width",
        "subset_rank",
        "subset_unrank",
    ),
    "varint": (
        "decode_elias_gamma",
        "elias_gamma_length",
        "encode_elias_gamma",
        "zigzag_encode",
    ),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

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

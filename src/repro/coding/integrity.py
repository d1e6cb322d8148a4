"""Payload integrity: CRC-32 checksums and sealed byte blobs.

Two consumers share this module:

* :mod:`repro.net.envelope` seals every wire frame (blackboard and
  fabric) so that any single-bit flip in transit is detected (CRC-32 catches all single-bit
  errors, and all burst errors up to 32 bits);
* :mod:`repro.store.store` seals every persisted result envelope so
  that on-disk corruption — bit rot, torn writes, truncation — can
  never be served as a cached result.

The sealed layout is the simplest possible one::

    +------------------+----------------+
    | data (any bytes) | CRC-32 (4 B)   |
    |                  |  big-endian    |
    +------------------+----------------+

:func:`seal` appends the checksum; :func:`unseal` verifies and strips
it, raising :class:`IntegrityError` on any mismatch.  Callers that need
a distinct error type (``FrameCorrupted``, ``StoreCorruptedError``)
catch and re-raise.
"""

from __future__ import annotations

import zlib

__all__ = ["CRC_BYTES", "IntegrityError", "crc32", "seal", "unseal"]

#: Width of the big-endian CRC-32 trailer.
CRC_BYTES = 4


class IntegrityError(ValueError):
    """A checksum did not match its payload (or the blob is too short
    to even carry a checksum)."""


def crc32(data: bytes) -> int:
    """The CRC-32 of ``data`` as an unsigned 32-bit integer."""
    return zlib.crc32(data) & 0xFFFFFFFF


def seal(data: bytes) -> bytes:
    """``data`` with its big-endian CRC-32 appended."""
    return data + crc32(data).to_bytes(CRC_BYTES, "big")


def unseal(blob: bytes) -> bytes:
    """Verify and strip the CRC-32 trailer of a sealed blob.

    Raises :class:`IntegrityError` if the blob is shorter than the
    trailer or the checksum does not match — any single-bit flip
    anywhere in ``blob`` (data or trailer) is rejected.
    """
    if len(blob) < CRC_BYTES:
        raise IntegrityError(
            f"sealed blob of {len(blob)} bytes cannot hold a "
            f"{CRC_BYTES}-byte checksum"
        )
    data, trailer = blob[:-CRC_BYTES], blob[-CRC_BYTES:]
    if crc32(data) != int.from_bytes(trailer, "big"):
        raise IntegrityError("checksum mismatch")
    return data

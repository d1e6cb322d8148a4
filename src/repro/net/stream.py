"""The stream layer both TCP harnesses share, whatever the codec:
:class:`StreamDecoder` reassembles frames from arbitrary chunks,
:func:`serve_frames` is the read loop of a server-side connection, and
:func:`run_blocking` is the synchronous, time-bounded entry of an
asyncio harness."""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Generic, List, Tuple, TypeVar

from .errors import (
    FrameCorrupted,
    FrameError,
    FrameTruncated,
    NetTimeoutError,
)

__all__ = ["StreamDecoder", "serve_frames", "run_blocking", "READ_CHUNK"]

#: Bytes asked of a stream per read.
READ_CHUNK = 65536

F = TypeVar("F")
R = TypeVar("R")


class StreamDecoder(Generic[F]):
    """Incremental decoder for a byte *stream* over a ``decode(buffer)
    -> (frame, consumed)`` function.

    Feed arbitrary chunks; complete frames come out, partial frames wait
    for more bytes.  Corruption is fatal on a stream — there is no frame
    boundary to resynchronize on — so :class:`FrameCorrupted` propagates
    to the caller, which should drop the connection.  Each ``feed``
    joins the pending bytes with the chunk once and decodes through a
    zero-copy view at a moving offset, never re-copying per frame.
    """

    __slots__ = ("_decode", "_buffer")

    def __init__(self, decode: Callable[[Any], Tuple[F, int]]) -> None:
        self._decode = decode
        self._buffer = b""

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet parsed into a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[F]:
        """Absorb ``data`` and return every frame completed by it."""
        buffer = self._buffer + data if self._buffer else bytes(data)
        view = memoryview(buffer)
        frames: List[F] = []
        offset = 0
        try:
            while offset < len(buffer):
                try:
                    frame, consumed = self._decode(view[offset:])
                except FrameTruncated:
                    break
                end = offset + consumed
                if not offset < end <= len(buffer):
                    # A decode must advance within the buffer; anything
                    # else would re-decode the same bytes forever.
                    raise FrameError(
                        f"decode moved the stream offset from {offset} "
                        f"to {end} of {len(buffer)} bytes"
                    )
                frames.append(frame)
                offset = end
        finally:
            self._buffer = buffer[offset:]
        return frames


async def serve_frames(
    reader: asyncio.StreamReader,
    decoder: StreamDecoder[F],
    on_frame: Callable[[F], Awaitable[bool]],
) -> None:
    """Hand each frame read from ``reader`` to ``on_frame`` until the
    peer closes or ``on_frame`` returns true.  A corrupt stream or a
    vanished peer (including one ``on_frame`` writes to) ends the loop
    quietly; the caller drops the connection."""
    try:
        while True:
            data = await reader.read(READ_CHUNK)
            if not data:
                return
            for frame in decoder.feed(data):
                if await on_frame(frame):
                    return
    except (FrameCorrupted, ConnectionError):
        return


def run_blocking(
    start: Callable[[], Awaitable[R]],
    timeout: float,
    *,
    entry: str,
    coroutine: str,
    what: str,
) -> R:
    """Run ``start()`` on a fresh event loop within ``timeout`` seconds.

    ``entry`` names the blocking entry point, which refuses to run
    inside a running loop and points at ``coroutine`` instead; ``what``
    names the run in the :class:`NetTimeoutError` raised on expiry.
    """
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        pass
    else:
        raise RuntimeError(
            f"{entry} must not be called from inside a running event "
            f"loop; await {coroutine} directly"
        )
    try:
        return asyncio.run(asyncio.wait_for(start(), timeout))
    except asyncio.TimeoutError:
        raise NetTimeoutError(
            f"{what} did not complete within {timeout} seconds"
        ) from None

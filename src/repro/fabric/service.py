"""The result-serving API: ``ResultKey`` lookups over TCP, read-through
against the content-addressed store.

:class:`FabricServer` answers ``GET`` frames from many concurrent
clients.  A *warm* key is answered straight from the store — zero
recompute, byte-identical to the payload a local
``checkpointed_map_grid`` would read, pinned by the ``store_hits`` /
``fabric_cells_dispatched`` counters.  A *cold* key triggers a sharded
sweep over the server's in-process worker pool
(:func:`~repro.fabric.loopback.run_loopback_sweep` across
``sweep_workers`` logical workers), whose write-through warms the store
for every later client.  Concurrent cold misses for the same key are
collapsed: sweeps serialize on one lock and re-probe the store after
acquiring it.

:class:`FabricClient` is the blocking client.  Every transfer is
digest-verified: the ``SERVE`` frame names the key digest it answers
and the client refuses a mismatch — on top of the wire CRC, the client
knows it got *the* result it addressed, not just *a* well-formed one.

Failures are typed end to end: an unregistered experiment or a
code-version mismatch comes back as an ``ERROR`` frame and raises
:class:`~repro.fabric.errors.ServeError`; a wedged connection raises
:class:`~repro.net.errors.NetTimeoutError`.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..net.errors import NetTimeoutError
from ..net.stream import READ_CHUNK, serve_frames
from ..obs.metrics import REGISTRY
from ..obs.trace import get_tracer
from ..store.keys import ResultKey
from ..store.store import ResultStore
from ..store.sweep import probe_store
from .core import key_from_wire, key_to_wire
from .errors import FabricError, ServeError
from .loopback import run_loopback_sweep
from .wire import (
    FabricFrame,
    FabricFrameDecoder,
    FabricFrameKind,
    encode_fabric_frame,
)

__all__ = [
    "FabricServer",
    "ServerThread",
    "FabricClient",
    "load_test",
]


class FabricServer:
    """Asyncio result server over one :class:`ResultStore`."""

    def __init__(
        self,
        store: ResultStore,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        sweep_workers: int = 2,
    ) -> None:
        self.store = store
        self.host = host
        self.port = port
        self.sweep_workers = max(1, sweep_workers)
        self._server: Optional[asyncio.base_events.Server] = None
        self._sweep_lock = asyncio.Lock()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        tracer = get_tracer()
        span = (
            tracer.begin_span("fabric_serve_conn") if tracer else None
        )

        async def on_frame(frame: FabricFrame) -> bool:
            if frame.kind == FabricFrameKind.GET:
                for reply in await self._answer(frame, span):
                    writer.write(encode_fabric_frame(reply))
                await writer.drain()
            # BYE ends the session; every other kind is ignored.
            return frame.kind == FabricFrameKind.BYE

        try:
            await serve_frames(reader, FabricFrameDecoder(), on_frame)
        except asyncio.CancelledError:
            return  # server shutting down: end the task quietly
        finally:
            if tracer and span is not None:
                tracer.end_span(span)
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionError,
                OSError,
                asyncio.CancelledError,
            ):  # pragma: no cover
                pass

    async def _answer(
        self, frame: FabricFrame, span: Optional[int]
    ) -> List[FabricFrame]:
        reg = REGISTRY if REGISTRY.enabled else None
        tracer = get_tracer()
        try:
            keys = [
                key_from_wire(record)
                for record in frame.fields.get("keys", [])
            ]
        except FabricError as exc:
            return [
                FabricFrame(FabricFrameKind.ERROR, {"message": str(exc)})
            ]
        payloads: List[Optional[bytes]] = []
        hits: List[bool] = []
        for key in keys:
            payload = probe_store(self.store, key)
            payloads.append(payload)
            hits.append(payload is not None)
        missing = [i for i, payload in enumerate(payloads) if payload is None]
        if missing:
            try:
                served = await self._cold_sweep([keys[i] for i in missing])
            except FabricError as exc:
                return [
                    FabricFrame(
                        FabricFrameKind.ERROR, {"message": str(exc)}
                    )
                ]
            for position, payload in zip(missing, served):
                payloads[position] = payload
        replies: List[FabricFrame] = []
        for index, (key, payload, hit) in enumerate(
            zip(keys, payloads, hits)
        ):
            assert payload is not None
            if reg is not None:
                reg.counter("fabric_requests").inc(
                    outcome="hit" if hit else "cold",
                    experiment=key.experiment,
                )
            if tracer:
                tracer.event_in(
                    span,
                    "fabric_serve",
                    experiment=key.experiment,
                    hit=hit,
                )
            replies.append(
                FabricFrame(
                    FabricFrameKind.SERVE,
                    {
                        "index": index,
                        "digest": key.digest,
                        "hit": hit,
                    },
                    payload,
                )
            )
        return replies

    async def _cold_sweep(self, keys: Sequence[ResultKey]) -> List[bytes]:
        """Compute cold keys via a sharded loopback sweep; serialized so
        concurrent misses for one key cost one computation."""
        loop = asyncio.get_running_loop()
        async with self._sweep_lock:
            # Another client's sweep may have warmed these while we
            # queued for the lock.
            still_missing = []
            payloads: List[Optional[bytes]] = []
            for key in keys:
                payload = probe_store(self.store, key)
                payloads.append(payload)
                if payload is None:
                    still_missing.append(key)
            if still_missing:
                swept = await loop.run_in_executor(
                    None,
                    lambda: run_loopback_sweep(
                        still_missing,
                        store=self.store,
                        workers=min(self.sweep_workers, len(still_missing)),
                    ),
                )
                fresh = iter(
                    swept[i] for i in range(len(still_missing))
                )
                payloads = [
                    payload if payload is not None else next(fresh)
                    for payload in payloads
                ]
        return [payload for payload in payloads if payload is not None]


class ServerThread:
    """A :class:`FabricServer` on a daemon thread — how the CLI, tests
    and benchmarks serve a store without blocking."""

    def __init__(
        self,
        store: ResultStore,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        sweep_workers: int = 2,
    ) -> None:
        self._server = FabricServer(
            store, host=host, port=port, sweep_workers=sweep_workers
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):  # pragma: no cover
            raise NetTimeoutError("fabric server thread failed to start")

    @property
    def port(self) -> int:
        return self._server.port

    def _main(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self._server.start()
        self._ready.set()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self._server.close()

    def stop(self) -> None:
        """Cancel the server's tasks and join its thread.  The loop may
        close at any moment (a second ``stop``, or the server ending on
        its own); a loop that is already closed has nothing to cancel."""
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(_cancel_all_tasks)
            except RuntimeError:  # the loop closed: the server is down
                pass
        self._thread.join(timeout=10)


def _cancel_all_tasks() -> None:
    for task in asyncio.all_tasks():
        task.cancel()


class FabricClient:
    """Blocking result client: digest-verified ``GET`` lookups."""

    def __init__(
        self, host: str, port: int, *, timeout: float = 60.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(timeout)
        self._decoder = FabricFrameDecoder()
        self._timeout = timeout

    def get(self, key: ResultKey) -> Tuple[bytes, bool]:
        """Fetch one key; returns ``(payload, was_store_hit)``."""
        ((payload, hit),) = self.get_many([key])
        return payload, hit

    def get_many(
        self, keys: Sequence[ResultKey]
    ) -> List[Tuple[bytes, bool]]:
        request = FabricFrame(
            FabricFrameKind.GET,
            {"keys": [key_to_wire(key) for key in keys]},
        )
        self._sock.sendall(encode_fabric_frame(request))
        answers: List[Tuple[bytes, bool]] = []
        while len(answers) < len(keys):
            for frame in self._read_frames():
                if frame.kind == FabricFrameKind.ERROR:
                    raise ServeError(
                        f"server refused the lookup: "
                        f"{frame.fields.get('message')!r}"
                    )
                if frame.kind != FabricFrameKind.SERVE:
                    continue
                index = len(answers)
                expected = keys[index].digest
                digest = frame.fields.get("digest")
                if digest != expected:
                    raise ServeError(
                        f"server answered digest {digest!r} for a lookup "
                        f"of {expected!r} — refusing the transfer"
                    )
                answers.append(
                    (frame.payload, bool(frame.fields.get("hit")))
                )
        return answers

    def _read_frames(self) -> List[FabricFrame]:
        try:
            data = self._sock.recv(READ_CHUNK)
        except socket.timeout:
            raise NetTimeoutError(
                f"fabric server sent nothing for {self._timeout} seconds"
            ) from None
        if not data:
            raise ServeError("server closed the connection mid-lookup")
        return self._decoder.feed(data)

    def close(self) -> None:
        try:
            self._sock.sendall(
                encode_fabric_frame(FabricFrame(FabricFrameKind.BYE, {}))
            )
        except OSError:  # pragma: no cover
            pass
        self._sock.close()

    def __enter__(self) -> "FabricClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(fraction * len(sorted_values))
    )
    return sorted_values[index]


def load_test(
    host: str,
    port: int,
    keys: Sequence[ResultKey],
    *,
    clients: int = 8,
    rounds: int = 1,
    expect_hits: bool = False,
) -> Dict[str, Any]:
    """Hammer a server from ``clients`` concurrent connections, each
    fetching every key ``rounds`` times (one request per key, so each
    latency sample is one round trip).  Returns request/hit counts and
    p50/p99 latency; with ``expect_hits`` raises
    :class:`~repro.fabric.errors.ServeError` unless *every* request was
    a warm store hit."""
    latencies_ms: List[List[float]] = [[] for _ in range(clients)]
    hit_counts = [0] * clients
    errors: List[BaseException] = []

    def client_loop(index: int) -> None:
        try:
            with FabricClient(host, port) as client:
                for _ in range(rounds):
                    for key in keys:
                        started = time.perf_counter()
                        _, hit = client.get(key)
                        elapsed = time.perf_counter() - started
                        latencies_ms[index].append(elapsed * 1000.0)
                        if hit:
                            hit_counts[index] += 1
        except BaseException as exc:  # surfaced to the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=client_loop, args=(index,))
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    flat = sorted(
        sample for per_client in latencies_ms for sample in per_client
    )
    requests = len(flat)
    hits = sum(hit_counts)
    if expect_hits and hits != requests:
        raise ServeError(
            f"expected 100% store hits but only {hits}/{requests} "
            f"requests were warm"
        )
    return {
        "clients": clients,
        "requests": requests,
        "hits": hits,
        "p50_ms": _percentile(flat, 0.50),
        "p99_ms": _percentile(flat, 0.99),
    }

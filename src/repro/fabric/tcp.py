"""Real-socket fabric transport: the coordinator over asyncio TCP with
worker subprocesses.

The coordinator runs the same sans-io
:class:`~repro.fabric.core.CoordinatorCore` as the loopback pool behind
an ``asyncio.start_server`` accept loop; each worker is a separate
``python -m repro.fabric worker`` *process* (spawned by
:func:`run_tcp_sweep`, or attached externally) running a blocking
:func:`run_worker` loop around
:class:`~repro.fabric.core.WorkerCore` — genuine multi-core
parallelism with the cells computed outside the coordinator's GIL.

TCP delivers reliably, so fault injection stays loopback-only (the
sweep entry point enforces it, mirroring ``repro.net``); what this
transport exercises is the real-io failure model: a SIGKILLed worker's
socket closes, the coordinator re-queues its leases immediately and
the surviving pool absorbs them.  Wall-clock lease expiry still backs
up byzantine-slow workers that keep their socket open.  Every path is
bounded: the whole sweep by ``timeout``
(:class:`~repro.net.errors.NetTimeoutError`), a dead pool by
:class:`~repro.fabric.errors.WorkerLostError`, a hopeless cell by
:class:`~repro.net.errors.RetriesExhaustedError`.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

from ..net.sim import WireMeter
from ..net.stream import READ_CHUNK, run_blocking, serve_frames
from ..store.keys import ResultKey
from ..store.store import ResultStore
from .core import CoordinatorCore, WorkerCore
from .errors import WorkerLostError
from .scheduler import DEFAULT_MAX_ATTEMPTS
from .wire import (
    FabricFrame,
    FabricFrameDecoder,
    FabricFrameKind,
    encode_fabric_frame,
)

__all__ = ["run_tcp_sweep", "run_worker", "TCP_LEASE_TIMEOUT"]

#: Wall-clock lease horizon.  Connection loss is the fast failure
#: signal; this only backs up workers that wedge with the socket open.
TCP_LEASE_TIMEOUT = 120.0

_TICK_PERIOD_S = 0.25

#: Test hook: a worker process with this env var set SIGKILLs itself on
#: receiving a lease after completing that many cells — how the
#: crash-resume suite produces a mid-sweep worker death.
_KILL_AFTER_ENV = "REPRO_FABRIC_TEST_KILL_AFTER"


def _src_pythonpath() -> str:
    """A PYTHONPATH that lets ``python -m repro.fabric`` import this
    very package in a child process."""
    package_root = os.path.dirname(  # src/, two levels above repro/fabric
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    existing = os.environ.get("PYTHONPATH")
    if existing:
        return os.pathsep.join([package_root, existing])
    return package_root


def run_tcp_sweep(
    keys: Sequence[ResultKey],
    *,
    store: Optional[ResultStore],
    workers: int,
    timeout: float = 600.0,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    worker_env: Optional[Dict[str, str]] = None,
) -> Dict[int, bytes]:
    """Shard ``keys`` across ``workers`` spawned worker processes over
    TCP on ``127.0.0.1``; returns cell index → payload bytes.  Blocking
    entry point; ``timeout`` bounds the whole sweep."""
    return run_blocking(
        lambda: _sweep_async(
            keys, store=store, workers=workers, max_attempts=max_attempts,
            worker_env=worker_env,
        ),
        timeout,
        entry="run_tcp_sweep",
        coroutine="repro.fabric.tcp._sweep_async",
        what="fabric tcp sweep",
    )


async def _sweep_async(
    keys: Sequence[ResultKey],
    *,
    store: Optional[ResultStore],
    workers: int,
    max_attempts: int,
    worker_env: Optional[Dict[str, str]],
) -> Dict[int, bytes]:
    loop = asyncio.get_running_loop()
    core = CoordinatorCore(
        keys,
        store=store,
        num_workers=workers,
        lease_timeout=TCP_LEASE_TIMEOUT,
        max_attempts=max_attempts,
    )
    lock = asyncio.Lock()
    done = asyncio.Event()
    failure: List[BaseException] = []
    writers: Dict[int, asyncio.StreamWriter] = {}
    wire = WireMeter(encode_fabric_frame, "fabric", "tcp")

    def _fail(exc: BaseException) -> None:
        if not failure:
            failure.append(exc)
        done.set()

    async def handle_worker(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        slot: Optional[int] = None

        async def on_frame(frame: FabricFrame) -> bool:
            nonlocal slot
            async with lock:
                if slot is None:
                    if frame.kind != FabricFrameKind.HELLO:
                        return False
                    slot = _free_slot()
                    if slot is None:
                        full = FabricFrame(
                            FabricFrameKind.ERROR,
                            {"message": "worker pool is full"},
                        )
                        writer.write(wire.encode(full))
                        await writer.drain()
                        return True
                    writers[slot] = writer
                try:
                    replies = core.on_frame(slot, frame, loop.time())
                except Exception as exc:
                    _fail(exc)
                    return True
                for reply in replies:
                    writer.write(wire.encode(reply))
                if core.done:
                    done.set()
            await writer.drain()
            return False

        try:
            await serve_frames(reader, FabricFrameDecoder(), on_frame)
        finally:
            if slot is not None:
                async with lock:
                    writers.pop(slot, None)
                    try:
                        core.on_worker_lost(slot, loop.time())
                    except Exception as exc:
                        _fail(exc)
            writer.close()

    def _free_slot() -> Optional[int]:
        for candidate in range(workers):
            if candidate not in writers and candidate not in core.workers:
                return candidate
        return None

    async def ticker(procs: List[subprocess.Popen]) -> None:
        while not done.is_set():
            await asyncio.sleep(_TICK_PERIOD_S)
            async with lock:
                try:
                    sends = core.on_tick(loop.time())
                except Exception as exc:
                    _fail(exc)
                    return
                for worker, frame in sends:
                    writer = writers.get(worker)
                    if writer is not None:
                        writer.write(wire.encode(frame))
                if core.done:
                    done.set()
                    return
                if (
                    not writers
                    and procs
                    and all(p.poll() is not None for p in procs)
                ):
                    _fail(
                        WorkerLostError(
                            "every fabric worker process exited while "
                            f"{len(keys) - len(core.results)} cells were "
                            "still outstanding"
                        )
                    )
                    return

    server = await asyncio.start_server(handle_worker, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    procs: List[subprocess.Popen] = []
    env = dict(os.environ)
    env["PYTHONPATH"] = _src_pythonpath()
    if worker_env:
        env.update(worker_env)
    try:
        for _ in range(workers):
            procs.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro.fabric",
                        "worker",
                        "--connect",
                        f"127.0.0.1:{port}",
                    ]
                    + (["--store", store.root] if store is not None else []),
                    env=env,
                )
            )
        tick_task = asyncio.ensure_future(ticker(procs))
        try:
            await done.wait()
        finally:
            tick_task.cancel()
            try:
                await tick_task
            except asyncio.CancelledError:
                pass
    finally:
        server.close()
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait()
        # On Python >= 3.12.1 wait_closed waits for every accepted
        # connection: hang up on any worker still attached first.
        for writer in list(writers.values()):
            writer.close()
        await server.wait_closed()
    if failure:
        raise failure[0]
    return core.results


# ----------------------------------------------------------------------
# The worker process.
# ----------------------------------------------------------------------
def run_worker(
    host: str,
    port: int,
    *,
    store_dir: Optional[str] = None,
) -> int:
    """Blocking worker loop: connect to a coordinator, compute leases
    until the coordinator hangs up.  Returns the number of cells
    computed (the ``python -m repro.fabric worker`` entry point)."""
    kill_after = os.environ.get(_KILL_AFTER_ENV)
    kill_threshold = int(kill_after) if kill_after else None
    store = ResultStore(store_dir) if store_dir else None
    core = WorkerCore(store=store)
    decoder = FabricFrameDecoder()
    sock = socket.create_connection((host, port), timeout=30.0)
    sock.settimeout(1.0)
    try:
        sock.sendall(encode_fabric_frame(core.hello()))
        while not core.done:
            try:
                data = sock.recv(READ_CHUNK)
            except socket.timeout:
                sock.sendall(
                    encode_fabric_frame(
                        FabricFrame(
                            FabricFrameKind.HEARTBEAT,
                            {"worker": core.worker_id},
                        )
                    )
                )
                continue
            if not data:
                break  # coordinator is done with us
            for frame in decoder.feed(data):
                if (
                    kill_threshold is not None
                    and frame.kind == FabricFrameKind.LEASE
                    and core.cells_done >= kill_threshold
                ):
                    # Crash-drill hook: die the hard way, mid-sweep.
                    os.kill(os.getpid(), signal.SIGKILL)
                for reply in core.on_frame(frame):
                    sock.sendall(encode_fabric_frame(reply))
    except ConnectionError:
        pass
    finally:
        sock.close()
    return core.cells_done

"""Sans-io coordinator and worker endpoints for the sweep fabric.

Exactly like ``repro.net``'s ``BlackboardServer``/``PartyClient`` pair,
the fabric's protocol logic lives in transport-free state machines:
:class:`CoordinatorCore` turns incoming frames into dispatch decisions
(via :class:`~repro.fabric.scheduler.CellScheduler`) and outgoing
frames; :class:`WorkerCore` turns a ``LEASE`` into a computed (or
store-served) ``RESULT``.  The loopback scheduler and the asyncio TCP
transport both drive these same objects, so fault-plan tests exercise
the production protocol code path.

Result transfers are digest-verified end to end: a ``RESULT`` frame
names the :class:`~repro.store.keys.ResultKey` digest it answers, the
coordinator checks it against the digest it leased *and* decodes the
payload before the write-through ``store.put`` — a worker running
mismatched code or shipping a mangled payload fails typed
(:class:`~repro.fabric.errors.FabricProtocolError`), never silently
poisons the store.  The store write happens before the cell is counted
complete, which is what makes the store the sweep's crash checkpoint.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import REGISTRY
from ..obs.telemetry import get_telemetry
from ..obs.trace import (
    RecordingTracer,
    TraceContext,
    TraceEvent,
    get_tracer,
)
from ..store.keys import STORE_FORMAT, ResultKey
from ..store.store import ResultStore
from ..store.sweep import decode_result, probe_store
from .cells import compute_cell_payload
from .errors import FabricProtocolError
from .scheduler import DEFAULT_MAX_ATTEMPTS, CellScheduler
from .wire import FabricFrame, FabricFrameKind

__all__ = [
    "CoordinatorCore",
    "WorkerCore",
    "key_to_wire",
    "key_from_wire",
]

#: Leases a worker may hold at once — the backpressure bound.  Two keeps
#: a worker busy (one computing, one queued) without hoarding cells a
#: faster peer could steal.
_MAX_INFLIGHT = 2


def key_to_wire(key: ResultKey) -> Dict[str, Any]:
    """The JSON header form of a key (its canonical dict)."""
    return key.to_dict()


def key_from_wire(record: Dict[str, Any]) -> ResultKey:
    """Reconstruct a key from its wire dict, refusing foreign store
    formats."""
    fmt = record.get("format")
    if fmt != STORE_FORMAT:
        raise FabricProtocolError(
            f"key carries store format {fmt!r}; this process speaks "
            f"{STORE_FORMAT!r}"
        )
    try:
        return ResultKey(
            experiment=record["experiment"],
            params=record["params"],
            seed=record.get("seed"),
            version=record["version"],
        )
    except KeyError as exc:
        raise FabricProtocolError(f"key record is missing field {exc}")


class CoordinatorCore:
    """Transport-free coordinator over one sweep of ``keys``.

    ``keys[i]`` is cell ``i``; completed payloads accumulate in
    :attr:`results` (cell index → canonical payload bytes) and are
    written through to ``store`` the moment they are verified.
    """

    def __init__(
        self,
        keys: Sequence[ResultKey],
        *,
        store: Optional[ResultStore],
        num_workers: int,
        lease_timeout: float = 8.0,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        self.keys = list(keys)
        self.store = store
        self.scheduler = CellScheduler(
            len(self.keys),
            num_workers,
            lease_timeout=lease_timeout,
            max_attempts=max_attempts,
        )
        self.results: Dict[int, bytes] = {}
        self._inflight: Dict[int, int] = {}
        self._cell_owner: Dict[int, int] = {}
        self._registered: Dict[int, bool] = {}
        self._tracer = get_tracer()
        self._telemetry = get_telemetry()
        self._reg = REGISTRY if REGISTRY.enabled else None

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return len(self.results) == len(self.keys)

    @property
    def workers(self) -> List[int]:
        return sorted(w for w, live in self._registered.items() if live)

    def register_worker(self, worker: int) -> None:
        self._registered[worker] = True
        self._inflight.setdefault(worker, 0)

    # ------------------------------------------------------------------
    # Frame handling.
    # ------------------------------------------------------------------
    def on_frame(
        self, worker: int, frame: FabricFrame, now: float
    ) -> List[FabricFrame]:
        """Process one frame from ``worker``; returns the reply frames
        (in order) for that worker."""
        kind = frame.kind
        if kind == FabricFrameKind.HELLO:
            self.register_worker(worker)
            welcome = FabricFrame(
                FabricFrameKind.WELCOME,
                {"worker": worker, "cells": len(self.keys)},
            )
            return [welcome] + self._fill(worker, now)
        if kind == FabricFrameKind.RESULT:
            self._on_result(worker, frame)
            return self._fill(worker, now)
        if kind in (FabricFrameKind.STEAL, FabricFrameKind.HEARTBEAT):
            return self._fill(worker, now)
        if kind == FabricFrameKind.ERROR:
            cell = frame.fields.get("cell")
            if isinstance(cell, int):
                self._release(cell)
                self.scheduler.fail(worker, cell)
                if self._reg is not None:
                    self._reg.counter("fabric_retries").inc(reason="error")
            return self._fill(worker, now)
        # BYE, and kinds a coordinator is never sent: nothing to do.
        return []

    def _on_result(self, worker: int, frame: FabricFrame) -> None:
        fields = frame.fields
        cell = fields.get("cell")
        if not isinstance(cell, int) or not 0 <= cell < len(self.keys):
            raise FabricProtocolError(
                f"RESULT names cell {cell!r} outside this sweep"
            )
        key = self.keys[cell]
        digest = fields.get("digest")
        if digest != key.digest:
            raise FabricProtocolError(
                f"RESULT for cell {cell} carries digest {digest!r} but "
                f"the lease was for {key.digest!r} — worker/coordinator "
                f"code mismatch"
            )
        try:
            decode_result(frame.payload)
        except (ValueError, UnicodeDecodeError) as exc:
            raise FabricProtocolError(
                f"RESULT payload for cell {cell} is not a canonical "
                f"result: {exc}"
            )
        self._replay_trace(fields.get("trace"))
        self._release(cell)
        if not self.scheduler.complete(worker, cell):
            return  # late duplicate from an expired lease: first won
        if self.store is not None:
            # Write-through *before* counting the cell done: the store
            # is the checkpoint a killed coordinator resumes from.
            self.store.put(key, frame.payload)
        self.results[cell] = frame.payload
        if self._reg is not None:
            self._reg.counter("fabric_cells_completed").inc(
                experiment=key.experiment,
                worker=worker,
                recomputed="yes" if fields.get("recomputed", True) else "no",
            )
        if self._telemetry is not None:
            self._telemetry.flush()

    def _replay_trace(self, shipped: Any) -> None:
        """Re-emit trace events a remote worker recorded, so the sweep's
        trace file holds one coherent coordinator→worker tree."""
        if not self._tracer or not isinstance(shipped, list):
            return
        for record in shipped:
            if isinstance(record, dict):
                self._tracer.emit(TraceEvent.from_dict(record))

    # ------------------------------------------------------------------
    # Dispatch plumbing.
    # ------------------------------------------------------------------
    def _release(self, cell: int) -> None:
        owner = self._cell_owner.pop(cell, None)
        if owner is not None and self._inflight.get(owner, 0) > 0:
            self._inflight[owner] -= 1

    def _fill(self, worker: int, now: float) -> List[FabricFrame]:
        """Grant ``worker`` leases up to the in-flight bound."""
        if not self._registered.get(worker, False):
            return []
        leases: List[FabricFrame] = []
        while self._inflight.get(worker, 0) < _MAX_INFLIGHT:
            grant = self.scheduler.next_cell(worker, now)
            if grant is None:
                break
            cell, stolen = grant
            self._inflight[worker] = self._inflight.get(worker, 0) + 1
            self._cell_owner[cell] = worker
            key = self.keys[cell]
            fields: Dict[str, Any] = {
                "cell": cell,
                "key": key_to_wire(key),
                "stolen": stolen,
                "lease_timeout": self.scheduler.lease_timeout,
            }
            trace_id = parent_span = None
            if self._tracer:
                ctx = self._tracer.current_context()
                trace_id, parent_span = ctx.trace_id, ctx.span_id
            if self._reg is not None:
                self._reg.counter("fabric_cells_dispatched").inc(
                    experiment=key.experiment,
                    stolen="yes" if stolen else "no",
                )
                if stolen:
                    self._reg.counter("fabric_steals").inc()
            leases.append(
                FabricFrame(
                    FabricFrameKind.LEASE, fields,
                    trace_id=trace_id, parent_span=parent_span,
                )
            )
        return leases

    def on_tick(self, now: float) -> List[Tuple[int, FabricFrame]]:
        """Advance time: expire overdue leases and re-fill idle workers.
        Returns ``(worker, frame)`` sends."""
        expired = self.scheduler.expire(now)
        for cell in expired:
            self._release(cell)
        if expired:
            if self._reg is not None:
                self._reg.counter("fabric_leases_expired").inc(len(expired))
                self._reg.counter("fabric_retries").inc(
                    len(expired), reason="lease-expired"
                )
        sends: List[Tuple[int, FabricFrame]] = []
        for worker in self.workers:
            for frame in self._fill(worker, now):
                sends.append((worker, frame))
        return sends

    def on_worker_lost(self, worker: int, now: float) -> None:
        """Connection to ``worker`` is gone: re-queue its leases and
        stop dispatching to it."""
        if not self._registered.pop(worker, False):
            return
        lost = self.scheduler.drop_worker(worker)
        for cell in lost:
            self._cell_owner.pop(cell, None)
        self._inflight[worker] = 0
        if self._reg is not None:
            self._reg.counter("fabric_workers_lost").inc()
            if lost:
                self._reg.counter("fabric_retries").inc(
                    len(lost), reason="worker-lost"
                )


class WorkerCore:
    """Transport-free worker endpoint: answers ``LEASE`` frames with
    digest-stamped ``RESULT`` frames.

    With a local ``store`` the worker probes it before computing
    (read-through) and checkpoints fresh results into it (write-
    through) — on a shared filesystem that alone makes a killed
    worker's finished cells survive; on disjoint machines the
    coordinator's own write-through covers it.
    """

    def __init__(
        self,
        worker_id: Optional[int] = None,
        *,
        store: Optional[ResultStore] = None,
        compute: Optional[Callable[[ResultKey], bytes]] = None,
    ) -> None:
        self.worker_id = worker_id
        self.store = store
        self._compute = compute if compute is not None else compute_cell_payload
        self.cells_done = 0
        self.done = False

    def hello(self) -> FabricFrame:
        fields: Dict[str, Any] = {}
        if self.worker_id is not None:
            fields["worker"] = self.worker_id
        return FabricFrame(FabricFrameKind.HELLO, fields)

    def on_frame(self, frame: FabricFrame) -> List[FabricFrame]:
        kind = frame.kind
        if kind == FabricFrameKind.WELCOME:
            self.worker_id = frame.fields.get("worker", self.worker_id)
            return []
        if kind == FabricFrameKind.LEASE:
            return [self._on_lease(frame)]
        if kind == FabricFrameKind.BYE:
            self.done = True
            return []
        if kind == FabricFrameKind.ERROR:
            raise FabricProtocolError(
                f"coordinator reported: {frame.fields.get('message')!r}"
            )
        # HEARTBEAT, and kinds a worker is never sent: ignore.
        return []

    # ------------------------------------------------------------------
    def _on_lease(self, frame: FabricFrame) -> FabricFrame:
        cell = frame.fields.get("cell")
        key = key_from_wire(frame.fields.get("key", {}))
        ctx = (
            None if frame.trace_id is None
            else TraceContext(frame.trace_id, frame.parent_span)
        )
        payload, recomputed, shipped = self._produce(key, cell, ctx)
        self.cells_done += 1
        fields: Dict[str, Any] = {
            "cell": cell,
            "worker": self.worker_id,
            "digest": key.digest,
            "recomputed": recomputed,
        }
        if shipped:
            fields["trace"] = shipped
        return FabricFrame(FabricFrameKind.RESULT, fields, payload)

    def _produce(
        self,
        key: ResultKey,
        cell: Any,
        ctx: Optional[TraceContext],
    ) -> Tuple[bytes, bool, List[Dict[str, Any]]]:
        tracer = get_tracer()
        if tracer:
            # In-process (loopback) worker: trace straight into the
            # coordinator's tracer, parented under the lease's context.
            with tracer.span(
                "fabric_cell",
                parent=ctx,
                cell=cell,
                experiment=key.experiment,
                worker=self.worker_id,
            ):
                payload, recomputed = self._resolve(key)
            return payload, recomputed, []
        if ctx is not None:
            # Remote worker with tracing requested upstream: record into
            # a namespaced child tracer and ship the events home in the
            # RESULT frame (the map_grid idiom, over the wire).
            recorder = RecordingTracer(
                trace_id=ctx.trace_id,
                parent=ctx.span_id,
                namespace=f"fabric:{self.worker_id}:{cell}",
            )
            with recorder.span(
                "fabric_cell",
                cell=cell,
                experiment=key.experiment,
                worker=self.worker_id,
            ):
                payload, recomputed = self._resolve(key)
            return payload, recomputed, [
                event.to_dict() for event in recorder.events
            ]
        payload, recomputed = self._resolve(key)
        return payload, recomputed, []

    def _resolve(self, key: ResultKey) -> Tuple[bytes, bool]:
        if self.store is not None:
            payload = probe_store(self.store, key)
            if payload is not None:
                return payload, False
        payload = self._compute(key)
        if self.store is not None:
            self.store.put(key, payload)
        return payload, True

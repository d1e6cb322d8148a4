"""A deterministic process-pool executor for experiment grids.

Design constraints, in order:

1. **Byte-identical output.**  A sweep's rendered table must not depend
   on ``workers``.  Tasks are pure functions of ``(item, derived seed)``,
   results come back tagged with their submission index and are
   reassembled in grid order, and per-task seeds are derived (stable
   hash), never drawn from a shared RNG.
2. **No lost metrics.**  The instrumented subsystems report to the
   process-wide :data:`repro.obs.REGISTRY`; a worker process has its own
   copy.  When the parent registry is collecting, each worker resets and
   enables its registry around the task and returns a snapshot, which the
   parent merges back in task order as each task resolves (so sweep
   telemetry, a view over the registry, sees faults inside workers
   while the sweep runs).
3. **Zero overhead when serial.**  ``workers in (None, 0, 1)`` runs the
   tasks in-process with no executor, no pickling, and metrics flowing
   directly into the parent registry.

Tasks must be picklable (module-level functions or
``functools.partial`` over them) because worker processes import them by
reference.  Tracer *objects* are process-local and not shipped to
workers — what crosses the boundary is the coordinating span's
:class:`~repro.obs.trace.TraceContext`.  Each worker traces into a
fresh :class:`~repro.obs.trace.RecordingTracer` namespaced by its task
index (span ids are hash-derived, so workers can never collide), runs
the task under a ``grid_task`` span parented to the coordinator's
``map_grid`` span, and ships its events back with the result; the
parent re-emits them in submission order.  One networked sweep
therefore yields one trace tree spanning coordinator, workers, server,
and parties.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import shm
from ..obs.metrics import REGISTRY, MetricsSnapshot, enable_metrics
from ..obs.telemetry import get_telemetry
from ..obs.trace import (
    RecordingTracer,
    TraceContext,
    TraceEvent,
    Tracer,
    _jsonable,
    get_tracer,
    using_tracer,
)

__all__ = ["derive_seed", "map_grid", "resolve_workers"]


def derive_seed(base_seed: int, index: int) -> int:
    """A per-task seed, stable across processes, platforms, and Python
    hash randomization.

    Derived by hashing ``(base_seed, index)`` with SHA-256 so that (a)
    every task sees an independent, reproducible stream and (b) the
    serial and parallel paths use the *same* seeds — a shared RNG would
    make task randomness depend on execution order.
    """
    payload = f"repro.perf:{base_seed}:{index}".encode("ascii")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``--workers`` value: ``None``/``0``/``1`` mean serial;
    negative values mean "one per available CPU"."""
    if workers is None:
        return 1
    if workers < 0:
        return max(os.cpu_count() or 1, 1)
    return max(workers, 1)


def _execute_task(
    fn: Callable[..., Any],
    index: int,
    item: Any,
    seed: Optional[int],
    collect_metrics: bool,
    trace_ctx: Optional[TraceContext] = None,
) -> Tuple[int, Any, Optional[MetricsSnapshot], List[Dict[str, Any]], int]:
    """Worker-side wrapper: run one task, optionally under a fresh
    metrics registry and a child tracer, and tag the result with its
    submission index.

    Returns ``(index, result, snapshot, events, pid)`` — ``events`` are
    the worker's trace records (JSON-degraded so the tuple pickles),
    parented under ``trace_ctx``.
    """
    if collect_metrics:
        # The worker inherited a copy of the parent registry (fork) or a
        # blank one (spawn); either way, start from a clean slate so the
        # returned snapshot contains exactly this task's series.
        enable_metrics(reset=True)
    events: List[Dict[str, Any]] = []
    if trace_ctx is not None:
        # Namespaced per task index: hash-derived span ids, so workers
        # allocate concurrently without coordination or collisions.
        worker_tracer = RecordingTracer(
            trace_id=trace_ctx.trace_id,
            parent=trace_ctx.span_id,
            namespace=f"task:{index}",
        )
        with using_tracer(worker_tracer):
            with worker_tracer.span("grid_task", index=index, pid=os.getpid()):
                result = fn(item) if seed is None else fn(item, seed)
        events = [_degrade_event(event) for event in worker_tracer.events]
    else:
        result = fn(item) if seed is None else fn(item, seed)
    # Large array payloads travel via shared memory; the pickled result
    # then carries only tokens (anything that cannot be exported falls
    # back to plain pickling inside pack_result).
    result = shm.pack_result(result)
    snapshot = REGISTRY.snapshot() if collect_metrics else None
    return index, result, snapshot, events, os.getpid()


def _degrade_event(event: TraceEvent) -> Dict[str, Any]:
    """A pickle-safe, JSON-ready form of a worker trace record (rich
    field values degrade exactly as :class:`JsonlTracer` would write
    them, so shipping through a worker never changes the trace file)."""
    record = event.to_dict()
    if "fields" in record:
        record["fields"] = {
            key: _jsonable(value) for key, value in record["fields"].items()
        }
    return record


def map_grid(
    fn: Callable[..., Any],
    items: Sequence[Any],
    *,
    workers: Optional[int] = None,
    base_seed: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Evaluate ``fn`` over ``items``, optionally across processes.

    Parameters
    ----------
    fn:
        A picklable callable.  Called as ``fn(item)`` when ``base_seed``
        is ``None``, else as ``fn(item, seed)`` with
        ``seed = derive_seed(base_seed, index)``.
    items:
        The grid points, in the order results should come back.
    workers:
        ``None``/``0``/``1`` run serially in-process; ``N > 1`` uses a
        :class:`~concurrent.futures.ProcessPoolExecutor` with ``N``
        workers; negative means one worker per CPU.
    base_seed:
        Optional sweep-level seed from which per-task seeds are derived.
    on_result:
        Optional parent-side callback invoked as ``on_result(index,
        result)`` for each task, in submission order, as results become
        available (immediately after each task when serial, as each
        future resolves when parallel).  This is the checkpoint hook of
        :mod:`repro.store.sweep`: a crash mid-sweep loses at most the
        not-yet-resolved suffix, because every delivered result was
        already handed to the callback.

    While metrics are collecting, each resolved task counts on
    ``grid_tasks_done`` under ``worker="N"``, the dense first-seen index
    of the process that ran it (never a pid, so reports stay
    deterministic; ``"0"`` when serial).

    When running in parallel, workers ship large numpy-array result
    payloads through :mod:`multiprocessing.shared_memory` segments
    instead of the result pipe (see :mod:`repro.perf.shm`); everything
    else — and every platform without shared memory — uses plain
    pickling.  Received shared bytes are counted on ``grid_shm_bytes``,
    and any segment orphaned by a crashed worker is swept when the pool
    shuts down.

    Returns
    -------
    list
        ``[fn(items[0], ...), fn(items[1], ...), ...]`` — always in item
        order, regardless of worker scheduling.
    """
    if tracer is None:
        tracer = get_tracer()
    count = resolve_workers(workers)
    items = list(items)
    seeds: List[Optional[int]] = [
        derive_seed(base_seed, index) if base_seed is not None else None
        for index in range(len(items))
    ]
    reg = REGISTRY if REGISTRY.enabled else None
    mode = "parallel" if count > 1 and len(items) > 1 else "serial"
    if reg is not None:
        reg.counter("grid_tasks").inc(len(items), mode=mode)
        reg.gauge("grid_workers").set(count)

    telemetry = get_telemetry()
    if telemetry is not None:
        telemetry.start_sweep("map_grid", len(items))

    try:
        if mode == "serial":
            results: List[Any] = []
            with tracer.span("map_grid", tasks=len(items), workers=1):
                for index, item in enumerate(items):
                    seed = seeds[index]
                    if tracer:
                        with tracer.span("grid_task", index=index):
                            result = (
                                fn(item) if seed is None else fn(item, seed)
                            )
                    else:
                        result = fn(item) if seed is None else fn(item, seed)
                    results.append(result)
                    if on_result is not None:
                        on_result(index, results[-1])
                    if tracer:
                        tracer.event("grid_task_done", index=index)
                    if reg is not None:
                        reg.counter("grid_tasks_done").inc(worker="0")
                    if telemetry is not None:
                        telemetry.flush()
            return results

        collect_metrics = reg is not None
        ordered: List[Any] = [None] * len(items)
        # Dense first-seen worker indices: label values must not leak
        # pids (they vary run to run) into reports.
        dense: Dict[int, str] = {}
        shm_bytes = 0
        with tracer.span("map_grid", tasks=len(items), workers=count):
            trace_ctx = tracer.current_context() if tracer else None
            try:
                with ProcessPoolExecutor(max_workers=count) as executor:
                    futures = [
                        executor.submit(
                            _execute_task,
                            fn,
                            index,
                            item,
                            seeds[index],
                            collect_metrics,
                            trace_ctx,
                        )
                        for index, item in enumerate(items)
                    ]
                    # Resolve in submission order: result ordering, the
                    # merged metrics, and which task's exception surfaces
                    # first are then deterministic.
                    for future in futures:
                        index, result, snapshot, events, pid = future.result()
                        result, received = shm.unpack_result(result)
                        shm_bytes += received
                        ordered[index] = result
                        if on_result is not None:
                            on_result(index, result)
                        if tracer:
                            # Replay the worker's records into the
                            # parent's sink; submission order keeps the
                            # trace file deterministic in structure.
                            for record in events:
                                tracer.emit(TraceEvent.from_dict(record))
                            tracer.event("grid_task_done", index=index)
                        if reg is not None:
                            if snapshot is not None and not snapshot.empty:
                                reg.merge_snapshot(snapshot)
                            worker = dense.setdefault(pid, str(len(dense)))
                            reg.counter("grid_tasks_done").inc(worker=worker)
                        if telemetry is not None:
                            telemetry.flush()
            finally:
                # A worker killed between exporting a segment and
                # delivering its token leaks it; sweep by prefix now that
                # the pool is gone.
                shm.sweep_orphans(os.getpid())
        if reg is not None and shm_bytes:
            reg.counter("grid_shm_bytes").inc(shm_bytes)
        return ordered
    finally:
        if telemetry is not None:
            telemetry.finish_sweep()

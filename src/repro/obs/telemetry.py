"""Sweep telemetry: progress snapshots and a live dashboard.

Where :mod:`repro.obs.trace` records *everything* and
:mod:`repro.obs.metrics` aggregates process-wide counters, the
telemetry sink is a sweep-shaped view of those counters: the handful of
numbers an operator watching a long sweep wants (cells done/total,
cache hit rate, per-worker cells, fault and retry counts, bytes on the
wire, an ETA), emitted as a **JSONL stream** of periodic snapshots
(``--telemetry out.jsonl``, schema in ``docs/observability.md``) and as
a **live terminal line** (``--progress``) redrawn on stderr by
:class:`ProgressRenderer`.

Every count in a snapshot is the change of a
:data:`~repro.obs.metrics.REGISTRY` counter since the sweep started, so
there is one counting path.  The sink only holds the sweep window:
:func:`repro.store.checkpointed_map_grid` and
:func:`repro.fabric.sweep.fabric_sweep` own their sweeps (they know the
total and the hit split), the inner ``map_grid`` joins rather than
starting its own, and a bare :func:`repro.perf.map_grid` call gets a
sweep of its own.  ``map_grid`` and the fabric coordinator call the
throttled :meth:`TelemetrySink.flush` as each cell completes.

No sink is installed by default; install one with
:func:`set_telemetry` / :func:`using_telemetry`.  Telemetry never
influences computation (it reads no RNG and feeds nothing back), so
watched and silent runs are bit-identical.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, IO, Iterator, Optional, Union

from .metrics import REGISTRY, LabelKey

__all__ = [
    "TelemetrySink",
    "ProgressRenderer",
    "read_telemetry",
    "get_telemetry",
    "set_telemetry",
    "using_telemetry",
]

#: The registry counters a snapshot reads.
_READ = (
    "grid_tasks_done", "fabric_cells_completed", "net_retries",
    "fabric_retries", "net_bytes_on_wire", "fabric_bytes_on_wire",
    "net_faults_injected", "fabric_workers_lost",
)


class ProgressRenderer:
    """Redraws one status line in place (``\\r``, no newline) on a
    stream — the ``--progress`` live dashboard.  The line is rebuilt
    from a telemetry snapshot, so the renderer itself is stateless
    beyond remembering how wide its last line was (to blank residue
    when the line shrinks)."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._last_width = 0

    def render(self, snap: Dict[str, Any]) -> None:
        total = snap.get("cells_total") or 0
        done = snap.get("cells_done", 0)
        parts = [str(snap.get("experiment") or "sweep")]
        if total:
            blocks = 20
            filled = min(blocks, (done * blocks) // total)
            bar = "#" * filled + "-" * (blocks - filled)
            parts.append(f"[{bar}] {done}/{total} cells")
        else:
            parts.append(f"{done} cells")
        probed = snap.get("hits", 0) + snap.get("misses", 0)
        if probed:
            rate = 100.0 * snap.get("hits", 0) / probed
            parts.append(f"{rate:.0f}% hit")
        faults = snap.get("faults") or {}
        if faults:
            parts.append(f"{sum(faults.values())} faults")
        if snap.get("retries"):
            parts.append(f"{snap['retries']} retries")
        workers = snap.get("workers") or {}
        elapsed = snap.get("elapsed_s") or 0.0
        if workers and elapsed > 0:
            parts.append(
                f"{len(workers)} workers | {done / elapsed:.1f} cells/s"
            )
        eta = snap.get("eta_s")
        if eta is not None:
            parts.append(f"ETA {eta:.0f}s")
        line = " | ".join(parts)
        pad = max(0, self._last_width - len(line))
        self._last_width = len(line)
        self._stream.write("\r" + line + " " * pad)
        self._stream.flush()

    def finish(self) -> None:
        """Terminate the live line with a newline (end of sweep)."""
        if self._last_width:
            self._stream.write("\n")
            self._stream.flush()
            self._last_width = 0


class TelemetrySink:
    """A sweep window over :data:`~repro.obs.metrics.REGISTRY` that
    periodically flushes snapshots.  It keeps only what the registry
    cannot know (label, cell total, hits found before the sweep, start
    time, baseline registry snapshot); collection must be on for the
    counts to move, as the CLIs ensure for ``--telemetry``/``--progress``.

    Parameters
    ----------
    destination:
        Path or text handle for the JSONL snapshot stream; ``None``
        keeps snapshots in memory only (the live renderer may still
        show them).
    renderer:
        A :class:`ProgressRenderer` redrawn on every flush.
    interval_s:
        Minimum wall-clock seconds between periodic flushes; the final
        flush on :meth:`finish_sweep` always happens.
    """

    def __init__(
        self,
        destination: Union[str, IO[str], None] = None,
        *,
        renderer: Optional[ProgressRenderer] = None,
        interval_s: float = 0.5,
    ) -> None:
        self._renderer = renderer
        self._interval_s = interval_s
        self._owns_handle = False
        self._handle: Optional[IO[str]] = None
        if isinstance(destination, str):
            self._handle = open(destination, "w", encoding="utf-8")
            self._owns_handle = True
        elif destination is not None:
            self._handle = destination
        self._depth = 0
        self._last_flush = float("-inf")
        self.experiment: Optional[str] = None
        self.cells_total = 0
        self.hits: Optional[int] = None
        self._started = 0.0
        self._baseline: Dict[str, Dict[LabelKey, float]] = {}

    # ------------------------------------------------------------------
    # Sweep lifecycle.
    # ------------------------------------------------------------------
    def start_sweep(
        self, experiment: str, total: int, *, hits: Optional[int] = None
    ) -> None:
        """Begin (or join) a sweep.  The outermost caller owns the
        sweep; nested calls (``map_grid`` under
        ``checkpointed_map_grid``) join it without resetting.  ``hits``
        is the store split found before the sweep, ``None`` when no
        store was probed (a bare ``map_grid``): snapshots then carry no
        ``hits``/``misses`` and the renderer shows no hit rate."""
        self._depth += 1
        if self._depth > 1:
            return
        self.experiment = experiment
        self.cells_total = total
        self.hits = hits
        self._baseline = REGISTRY.snapshot().counters
        self._started = time.perf_counter()
        self.flush(force=True)

    def finish_sweep(self) -> None:
        """End the sweep started by the matching :meth:`start_sweep`;
        the outermost end emits the final snapshot."""
        if self._depth == 0:
            return
        self._depth -= 1
        if self._depth == 0:
            self.flush(force=True, final=True)
            if self._renderer is not None:
                self._renderer.finish()

    # ------------------------------------------------------------------
    # Output.
    # ------------------------------------------------------------------
    def _deltas(self) -> Dict[str, Dict[LabelKey, float]]:
        """Each counter a snapshot reads, per label set, as its change
        since :meth:`start_sweep`."""
        now = REGISTRY.snapshot().counters
        deltas: Dict[str, Dict[LabelKey, float]] = {}
        for name in _READ:
            base = self._baseline.get(name, {})
            deltas[name] = {
                key: value - base.get(key, 0)
                for key, value in now.get(name, {}).items()
                if value != base.get(key, 0)
            }
        return deltas

    def snapshot(self) -> Dict[str, Any]:
        """The current aggregate state as one JSON-ready record."""
        elapsed = (
            time.perf_counter() - self._started if self._started else 0.0
        )
        deltas = self._deltas()

        def total(*names: str) -> float:
            return sum(sum(deltas[name].values()) for name in names)

        def by(label: str, *names: str) -> Dict[str, float]:
            split: Dict[str, float] = {}
            for name in names:
                for key, value in deltas[name].items():
                    part = dict(key).get(label, "-")
                    split[part] = split.get(part, 0) + value
            return split

        completed = by("recomputed", "fabric_cells_completed")
        recomputes = total("grid_tasks_done") + completed.get("yes", 0)
        hits = self.hits or 0
        cells_done = hits + recomputes + completed.get("no", 0)
        faults = by("fault", "net_faults_injected")
        lost = total("fabric_workers_lost")
        if lost:
            faults["worker-lost"] = lost
        workers = by("worker", "grid_tasks_done", "fabric_cells_completed")
        wire = total("net_bytes_on_wire", "fabric_bytes_on_wire")
        record: Dict[str, Any] = {
            "experiment": self.experiment,
            "cells_total": self.cells_total,
            "cells_done": cells_done,
            "recomputes": recomputes,
            "retries": total("net_retries", "fabric_retries"),
            "bytes_on_wire": wire,
            "faults": dict(sorted(faults.items())),
            "workers": {
                worker: {"cells": cells}
                for worker, cells in sorted(workers.items())
            },
            "elapsed_s": elapsed,
        }
        if self.hits is not None:
            record["hits"] = self.hits
            record["misses"] = self.cells_total - self.hits
        fresh_done = cells_done - hits
        remaining = self.cells_total - cells_done
        if fresh_done > 0 and remaining > 0 and elapsed > 0:
            record["eta_s"] = elapsed / fresh_done * remaining
        else:
            record["eta_s"] = None
        return record

    def flush(self, *, force: bool = False, final: bool = False) -> None:
        """Emit a snapshot if ``interval_s`` has elapsed (or ``force``)."""
        now = time.perf_counter()
        if not force and now - self._last_flush < self._interval_s:
            return
        self._last_flush = now
        snap = self.snapshot()
        if final:
            snap["final"] = True
        if self._handle is not None:
            self._handle.write(json.dumps(snap, separators=(",", ":")))
            self._handle.write("\n")
            self._handle.flush()
        if self._renderer is not None:
            self._renderer.render(snap)

    def close(self) -> None:
        if self._owns_handle and self._handle is not None:
            self._handle.close()
            self._handle = None


def read_telemetry(source: Union[str, IO[str]]) -> list:
    """Load a JSONL telemetry stream back into snapshot dicts."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return read_telemetry(handle)
    records = []
    for line in source:
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


# ----------------------------------------------------------------------
# Process-wide sink (mirrors the tracer idiom).
# ----------------------------------------------------------------------
_GLOBAL_TELEMETRY: Optional[TelemetrySink] = None


def get_telemetry() -> Optional[TelemetrySink]:
    """The process-wide telemetry sink (``None`` unless one was
    installed)."""
    return _GLOBAL_TELEMETRY


def set_telemetry(sink: Optional[TelemetrySink]) -> Optional[TelemetrySink]:
    """Install ``sink`` process-wide (``None`` removes it).  Returns the
    previous sink."""
    global _GLOBAL_TELEMETRY
    previous = _GLOBAL_TELEMETRY
    _GLOBAL_TELEMETRY = sink
    return previous


@contextmanager
def using_telemetry(
    sink: Optional[TelemetrySink],
) -> Iterator[Optional[TelemetrySink]]:
    """Temporarily install a telemetry sink (restored on exit)."""
    previous = set_telemetry(sink)
    try:
        yield sink
    finally:
        set_telemetry(previous)

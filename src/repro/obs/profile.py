"""A seeded sampling profiler attributing samples to span paths.

``cProfile`` answers "which Python function is hot"; what the sweep
fabric needs is "which *experiment phase* is hot" — is E1's wall time
going into the exact tree walk, the Lemma 7 sampler, or frame codecs?
:class:`SamplingProfiler` answers both at once: a daemon thread wakes
up ~``hz`` times a second, grabs the main thread's stack via
``sys._current_frames()``, and records one sample holding

* the innermost application frames (``module:function`` from the
  ``repro`` package, innermost first), and
* the tracer's **open span path** (:meth:`repro.obs.trace.Tracer.
  open_span_path`) — the chain of spans enclosing the sampled moment,
  e.g. ``("experiment", "checkpointed_sweep", "map_grid", "net_run")``.

Samples stream to JSONL (one object per line); ``python -m repro.obs
top`` ranks them.  The wakeup jitter is drawn from a seeded
``random.Random`` so two profiles of the same run sample comparable
schedules — "seeded" means the *profiler's* choices replay, while the
profiled program stays untouched: the profiler only ever reads frames,
so profiled and unprofiled runs are bit-identical (the determinism
contract every obs layer obeys).

For deterministic tests, :meth:`SamplingProfiler.sample_once` takes one
synchronous sample without any thread.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time
from types import FrameType
from typing import Any, Dict, IO, List, Optional, Union

from .trace import get_tracer

__all__ = ["SamplingProfiler", "read_profile"]

#: Application frames kept per sample.
_STACK_LIMIT = 12


def _app_stack(frame: Optional[FrameType]) -> List[str]:
    """Innermost ``repro`` frames of ``frame``'s stack (at most
    :data:`_STACK_LIMIT`) as ``module:function`` strings, innermost
    first."""
    stack: List[str] = []
    while frame is not None and len(stack) < _STACK_LIMIT:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("repro.") and not module.startswith(
            "repro.obs"
        ):
            stack.append(f"{module}:{frame.f_code.co_name}")
        frame = frame.f_back
    return stack


class SamplingProfiler:
    """Samples the main thread's stack + open span path to JSONL.

    The span path is the process-wide tracer's
    (:func:`repro.obs.using_tracer`), read *at sample time*.

    Parameters
    ----------
    destination:
        Path or text handle for the JSONL sample stream.
    hz:
        Target sampling rate (samples per second).
    seed:
        Seeds the wakeup jitter (±20% of the period) so the sampling
        schedule replays run to run.
    """

    def __init__(
        self,
        destination: Union[str, IO[str]],
        *,
        hz: float = 97.0,
        seed: int = 0,
    ) -> None:
        if hz <= 0:
            raise ValueError(f"hz must be positive, got {hz!r}")
        if isinstance(destination, str):
            self._handle: IO[str] = open(destination, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = destination
            self._owns_handle = False
        self._period = 1.0 / hz
        self._rng = random.Random(seed)
        self._target_thread = threading.get_ident()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.samples_taken = 0

    # ------------------------------------------------------------------
    def sample_once(self) -> Dict[str, Any]:
        """Take one sample of the target thread synchronously (the
        deterministic path tests drive)."""
        frame = sys._current_frames().get(self._target_thread)
        record = {
            "ts": time.perf_counter(),
            "spans": list(get_tracer().open_span_path()),
            "stack": _app_stack(frame),
        }
        with self._lock:
            self._handle.write(json.dumps(record, separators=(",", ":")))
            self._handle.write("\n")
            self.samples_taken += 1
        return record

    def _run(self) -> None:
        while not self._stop.is_set():
            # Seeded jitter decorrelates the sampling grid from any
            # periodic structure in the profiled code.
            jitter = self._rng.uniform(0.8, 1.2)
            if self._stop.wait(self._period * jitter):
                break
            try:
                self.sample_once()
            except ValueError:
                return  # destination closed under us: stop sampling

    # ------------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        """Start the background sampling thread (daemonized — it can
        never keep the process alive)."""
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and flush; idempotent."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        with self._lock:
            self._handle.flush()
            if self._owns_handle and not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def read_profile(source: Union[str, IO[str]]) -> List[Dict[str, Any]]:
    """Load a JSONL profile written by :class:`SamplingProfiler`."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return read_profile(handle)
    samples = []
    for line in source:
        line = line.strip()
        if line:
            samples.append(json.loads(line))
    return samples

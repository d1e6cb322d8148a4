"""Structured tracing for the protocol runtime.

The reproduction's hot subsystems — the concrete runner, the exact tree
analyzer and the Lemma 7 samplers — emit *events* (one structured
record each) and *spans* (begin/end pairs carrying wall-clock duration)
into the process-wide :class:`Tracer`.  The design
mirrors how the paper (and its message-passing follow-up,
arXiv:1305.4696) accounts information per message and per round: every
event names the speaker, the bits charged, and the round index, so a
trace is a bit-level ledger of where communication went.

Distributed context
-------------------
Every span belongs to a *trace* (a 63-bit ``trace_id``) and carries the
id of its *parent* span, so a trace file — possibly assembled from
several processes — reconstructs into one tree
(``python -m repro.obs tree``).  A :class:`TraceContext` is the
``(trace_id, span_id)`` pair that crosses process and wire boundaries:

* :func:`repro.perf.map_grid` ships the coordinating sweep span's
  context to worker processes, which trace into a child tracer
  (namespaced so span ids cannot collide) and ship their events back;
* the wire envelope (:mod:`repro.net.envelope`) carries the sender's
  context in a fixed-width field of every blackboard and fabric frame,
  so blackboard-server and fabric-worker work is attributed under the
  requesting span purely from wire bytes.

Span ids are either small in-process sequence numbers (the root tracer)
or SHA-256-derived 63-bit values namespaced per worker/party, which is
what makes cross-process allocation collision-free without any
coordination — and deterministic, so a re-run with the same trace id
yields the same tree.

Three tracers:

* :class:`NullTracer` — the default.  It is *falsy*, and every
  instrumented hot path guards its emission code with ``if tracer:``, so
  with tracing disabled the per-message cost is a single truth test — no
  method call, no dict allocation.  That is the "provably zero overhead"
  contract, and the regression tests assert traced and untraced runs
  produce identical results.
* :class:`RecordingTracer` — appends events to an in-memory list;
  the tool of choice for tests and programmatic inspection.
* :class:`JsonlTracer` — streams each event as one JSON line to a file,
  the format consumed by ``python -m repro.experiments EN --trace f``.
  :func:`read_trace` loads such a file back into event objects.

The process-wide tracer is the one way in: install it with
:func:`set_tracer` or the :func:`using_tracer` context manager, and
every instrumented entry point reads it once per call with
:func:`get_tracer` (no function takes a ``tracer`` argument), so the CLI
traces an entire experiment without threading a tracer through every
call site.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    IO,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

__all__ = [
    "TraceContext",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "RecordingTracer",
    "JsonlTracer",
    "new_trace_id",
    "read_trace",
    "get_tracer",
    "set_tracer",
    "using_tracer",
]


def new_trace_id() -> int:
    """A fresh 63-bit trace id (uniform, collision-free in practice)."""
    return int.from_bytes(os.urandom(8), "big") >> 1


@dataclass(frozen=True)
class TraceContext:
    """The portable identity of an enclosing span: what crosses process
    boundaries (pickled to ``map_grid`` workers) and wire boundaries
    (the context field of every ``repro.net`` envelope).  ``span_id`` may be ``None``
    for a trace with no span open yet."""

    trace_id: int
    span_id: Optional[int] = None


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    ``kind`` is ``"event"`` for point events, ``"begin"``/``"end"`` for
    span boundaries.  ``span`` is the span id the record belongs to (its
    own id for begin/end records).  ``trace`` is the 63-bit trace id the
    record belongs to and ``parent`` (on ``begin`` records) is the id of
    the enclosing span — possibly one opened in another process.  ``ts``
    is a monotonic timestamp in seconds (``time.perf_counter``);  on
    Linux ``perf_counter`` is ``CLOCK_MONOTONIC``, shared by all
    processes on the machine, so deltas are meaningful across a
    multi-process trace too.
    """

    name: str
    kind: str = "event"
    span: Optional[int] = None
    ts: float = 0.0
    fields: Dict[str, Any] = field(default_factory=dict)
    trace: Optional[int] = None
    parent: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "ts": self.ts,
        }
        if self.span is not None:
            record["span"] = self.span
        if self.trace is not None:
            record["trace"] = self.trace
        if self.parent is not None:
            record["parent"] = self.parent
        if self.fields:
            record["fields"] = self.fields
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "TraceEvent":
        return cls(
            name=record["name"],
            kind=record.get("kind", "event"),
            span=record.get("span"),
            ts=record.get("ts", 0.0),
            fields=dict(record.get("fields", {})),
            trace=record.get("trace"),
            parent=record.get("parent"),
        )


class Tracer:
    """Base tracer: collects events via :meth:`emit`.

    Subclasses override :meth:`emit`.  Real tracers are truthy; the
    :class:`NullTracer` is falsy, which is what lets hot paths skip all
    emission work with a bare ``if tracer:``.

    Parameters
    ----------
    trace_id:
        The 63-bit trace this tracer contributes to; defaults to a fresh
        :func:`new_trace_id`.  Child tracers (worker processes) pass the
        coordinator's id so all records land in one trace.
    parent:
        Span id a *remote* enclosing span — the parent of this tracer's
        top-level spans.  ``None`` for a root tracer.
    namespace:
        Distinguishes span-id allocation across processes.  The root
        tracer (empty namespace) hands out small sequence numbers;  a
        namespaced tracer (``"task:3"``, ``"party:1"``) derives 63-bit
        ids from ``SHA-256(trace_id, namespace, counter)``, so tracers
        in different processes can never collide without coordination.
    """

    def __init__(
        self,
        *,
        trace_id: Optional[int] = None,
        parent: Optional[int] = None,
        namespace: str = "",
    ) -> None:
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self._parent = parent
        self._namespace = namespace
        self._next_span = 0
        self._span_stack: List[int] = []
        self._span_names: List[str] = []
        #: Spans started via :meth:`begin_span`: id -> (name, ts, trace).
        self._open_spans: Dict[int, Tuple[str, float, int]] = {}

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return True

    # ------------------------------------------------------------------
    # Context.
    # ------------------------------------------------------------------
    def current_context(self) -> TraceContext:
        """The context new remote work should parent under: the top of
        the span stack, or this tracer's own remote parent."""
        span = self._span_stack[-1] if self._span_stack else self._parent
        return TraceContext(trace_id=self.trace_id, span_id=span)

    def open_span_path(self) -> Tuple[str, ...]:
        """Names of the (context-manager) spans currently open, outermost
        first — what the sampling profiler attributes samples to."""
        return tuple(self._span_names)

    def _new_span_id(self) -> int:
        index = self._next_span
        self._next_span += 1
        if not self._namespace:
            return index
        payload = f"repro.obs:{self.trace_id}:{self._namespace}:{index}"
        digest = hashlib.sha256(payload.encode("ascii")).digest()
        return int.from_bytes(digest[:8], "big") >> 1

    def _resolve_parent(
        self, parent: Union[TraceContext, int, None]
    ) -> Tuple[Optional[int], int]:
        """Normalize an explicit parent to ``(parent_span, trace_id)``;
        ``None`` inherits the stack top (or this tracer's remote
        parent)."""
        if parent is None:
            if self._span_stack:
                return self._span_stack[-1], self.trace_id
            return self._parent, self.trace_id
        if isinstance(parent, TraceContext):
            return parent.span_id, parent.trace_id
        return parent, self.trace_id

    # ------------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def event(self, name: str, **fields: Any) -> None:
        """Record a point event inside the current span (if any)."""
        span = self._span_stack[-1] if self._span_stack else None
        self.emit(
            TraceEvent(
                name=name,
                kind="event",
                span=span,
                ts=time.perf_counter(),
                fields=fields,
                trace=self.trace_id,
            )
        )

    def event_in(self, span_id: Optional[int], name: str, **fields: Any) -> None:
        """Record a point event attributed to an explicit span — the tool
        for interleaved spans opened with :meth:`begin_span`, where the
        stack cannot know which logical span is active."""
        self.emit(
            TraceEvent(
                name=name,
                kind="event",
                span=span_id,
                ts=time.perf_counter(),
                fields=fields,
                trace=self.trace_id,
            )
        )

    def _emit_begin(
        self,
        name: str,
        parent: Union[TraceContext, int, None],
        fields: Dict[str, Any],
    ) -> Tuple[int, float, int]:
        span_id = self._new_span_id()
        parent_span, trace_id = self._resolve_parent(parent)
        started = time.perf_counter()
        self.emit(
            TraceEvent(
                name=name,
                kind="begin",
                span=span_id,
                ts=started,
                fields=fields,
                trace=trace_id,
                parent=parent_span,
            )
        )
        return span_id, started, trace_id

    def _emit_end(
        self,
        span_id: int,
        name: str,
        started: float,
        trace_id: int,
        fields: Dict[str, Any],
    ) -> None:
        ended = time.perf_counter()
        end_fields = {"elapsed_s": ended - started}
        end_fields.update(fields)
        self.emit(
            TraceEvent(
                name=name,
                kind="end",
                span=span_id,
                ts=ended,
                fields=end_fields,
                trace=trace_id,
            )
        )

    @contextmanager
    def span(
        self,
        name: str,
        parent: Union[TraceContext, int, None] = None,
        **fields: Any,
    ) -> Iterator[int]:
        """A begin/end pair; the end record carries ``elapsed_s``.

        The begin record's ``parent`` is the enclosing span (stack
        discipline), or the explicit ``parent`` — a span id or a
        :class:`TraceContext` that may have crossed a process or wire
        boundary.  Events emitted inside attribute to this span.
        """
        span_id, started, trace_id = self._emit_begin(name, parent, fields)
        self._span_stack.append(span_id)
        self._span_names.append(name)
        try:
            yield span_id
        finally:
            self._span_stack.pop()
            self._span_names.pop()
            self._emit_end(span_id, name, started, trace_id, {})

    # ------------------------------------------------------------------
    # Interleaved (non-nesting) spans.
    # ------------------------------------------------------------------
    def begin_span(
        self,
        name: str,
        parent: Union[TraceContext, int, None] = None,
        **fields: Any,
    ) -> int:
        """Open a span *without* stack discipline — for lifetimes that
        interleave (concurrent party endpoints inside one event loop).
        Close it with :meth:`end_span`; attribute events to it with
        :meth:`event_in`."""
        span_id, started, trace_id = self._emit_begin(name, parent, fields)
        self._open_spans[span_id] = (name, started, trace_id)
        return span_id

    def end_span(self, span_id: int, **fields: Any) -> None:
        """Close a span opened with :meth:`begin_span`; idempotent for
        already-closed ids (crash paths may race completion)."""
        entry = self._open_spans.pop(span_id, None)
        if entry is None:
            return
        name, started, trace_id = entry
        self._emit_end(span_id, name, started, trace_id, fields)

    def close(self) -> None:
        """Release any resources (file handles); idempotent."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class NullTracer(Tracer):
    """The do-nothing default.  Falsy, so ``if tracer:`` guards compile
    the entire emission path away; its methods are no-ops regardless, so
    passing it explicitly is also safe."""

    def __init__(self) -> None:
        super().__init__(trace_id=0)

    def __bool__(self) -> bool:
        return False

    def emit(self, event: TraceEvent) -> None:
        pass

    def event(self, name: str, **fields: Any) -> None:
        pass

    def event_in(self, span_id: Optional[int], name: str, **fields: Any) -> None:
        pass

    @contextmanager
    def span(
        self,
        name: str,
        parent: Union[TraceContext, int, None] = None,
        **fields: Any,
    ) -> Iterator[int]:
        yield -1

    def begin_span(
        self,
        name: str,
        parent: Union[TraceContext, int, None] = None,
        **fields: Any,
    ) -> int:
        return -1

    def end_span(self, span_id: int, **fields: Any) -> None:
        pass

    def current_context(self) -> Optional[TraceContext]:  # type: ignore[override]
        return None

    def open_span_path(self) -> Tuple[str, ...]:
        return ()


#: Shared singleton; there is never a reason to construct more.
NULL_TRACER = NullTracer()


class RecordingTracer(Tracer):
    """Keeps every event in memory (``.events``)."""

    def __init__(
        self,
        *,
        trace_id: Optional[int] = None,
        parent: Optional[int] = None,
        namespace: str = "",
    ) -> None:
        super().__init__(trace_id=trace_id, parent=parent, namespace=namespace)
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def named(self, name: str) -> List[TraceEvent]:
        """All events with the given name, in emission order."""
        return [e for e in self.events if e.name == name]

    def clear(self) -> None:
        self.events.clear()


def _jsonable(value: Any) -> Any:
    """Coerce a field value to something ``json.dumps`` accepts; rich
    objects (transcripts, protocols, and tuple-backed values such as
    messages and links) degrade to ``str``."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if type(value) in (list, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


class JsonlTracer(Tracer):
    """Streams events to a JSONL file (one JSON object per line)."""

    def __init__(
        self,
        destination: Union[str, IO[str]],
        *,
        trace_id: Optional[int] = None,
        parent: Optional[int] = None,
        namespace: str = "",
    ) -> None:
        super().__init__(trace_id=trace_id, parent=parent, namespace=namespace)
        if isinstance(destination, str):
            self._handle: IO[str] = open(destination, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = destination
            self._owns_handle = False
        self._closed = False

    def emit(self, event: TraceEvent) -> None:
        if self._closed:
            raise ValueError("tracer is closed")
        record = event.to_dict()
        if "fields" in record:
            record["fields"] = {
                k: _jsonable(v) for k, v in record["fields"].items()
            }
        self._handle.write(json.dumps(record, separators=(",", ":")))
        self._handle.write("\n")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()


def read_trace(source: Union[str, IO[str]]) -> List[TraceEvent]:
    """Load a JSONL trace written by :class:`JsonlTracer`."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return read_trace(handle)
    events = []
    for line in source:
        line = line.strip()
        if not line:
            continue
        events.append(TraceEvent.from_dict(json.loads(line)))
    return events


# ----------------------------------------------------------------------
# Process-wide default tracer.
# ----------------------------------------------------------------------
_GLOBAL_TRACER: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The process-wide default tracer (:data:`NULL_TRACER` unless one
    was installed)."""
    return _GLOBAL_TRACER


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` as the process-wide default; ``None`` restores
    the :class:`NullTracer`.  Returns the previous default."""
    global _GLOBAL_TRACER
    previous = _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def using_tracer(tracer: Optional[Tracer]) -> Iterator[Tracer]:
    """Temporarily install a default tracer (restored on exit)."""
    previous = set_tracer(tracer)
    try:
        yield get_tracer()
    finally:
        set_tracer(previous)

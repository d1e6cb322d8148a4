"""One seeded discrete-event network under both loopback dialects.

The blackboard (:mod:`repro.net.loopback`, with Bracha beneath it) and
the fabric (:mod:`repro.fabric.loopback`) run their production sans-io
endpoints on this simulator instead of sockets.  A dialect brings its
codec, its frame handler and its own event kinds (watchdog timers,
clock ticks); the simulator owns the rest: a priority queue of
``(time, seq, kind, payload)`` events under a step budget, the wire
(encode, count, inject faults on the bytes, decode-or-drop on
delivery), fault accounting, and crash-restart.  :class:`WireMeter` is
the wire-accounting site of every transport, TCP included.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..obs.metrics import REGISTRY
from ..obs.trace import get_tracer
from .errors import FrameError, NetTimeoutError
from .faults import FaultInjector, PartyCrash

__all__ = ["Simulator", "WireMeter", "BASE_LATENCY", "RESTART_DELAY"]

#: Delivery latency of an unfaulted frame, in scheduler time units.
BASE_LATENCY = 1.0

#: How long after a crash the replacement node comes up.
RESTART_DELAY = 5.0


class WireMeter:
    """The encoder of one transport's wire.  Every frame it encodes is
    counted, by kind name and bytes, into the ``dialect``'s
    counters: ``"net"`` (``net_frames_sent``, ``net_bytes_on_wire``) or
    ``"fabric"`` (``fabric_frames``, ``fabric_bytes_on_wire``)."""

    __slots__ = ("_encode", "_net", "_transport", "_reg")

    def __init__(
        self, encode: Callable[[Any], bytes], dialect: str, transport: str
    ) -> None:
        self._encode = encode
        self._net = dialect == "net"
        self._transport = transport
        self._reg = REGISTRY if REGISTRY.enabled else None

    def encode(self, frame: Any) -> bytes:
        wire = self._encode(frame)
        reg = self._reg
        if reg is not None:
            if self._net:
                frames = reg.counter("net_frames_sent")
                nbytes = reg.counter("net_bytes_on_wire")
            else:
                frames = reg.counter("fabric_frames")
                nbytes = reg.counter("fabric_bytes_on_wire")
            frames.inc(kind=frame.kind.name, transport=self._transport)
            nbytes.inc(len(wire), transport=self._transport)
        return wire


class Simulator:
    """A seeded discrete-event network of numbered nodes.

    ``handlers`` maps the dialect's event kinds to callbacks on the
    event payload; ``on_frame(dest, origin, frame)`` takes each decoded
    delivery.  ``fault_label`` is the ``transport`` label of
    ``net_faults_injected``, ``event_fields`` extend every ``fault``
    event, and ``name`` ("<where> <what>") words the budget errors.
    """

    def __init__(
        self,
        *,
        name: str,
        decode: Callable[[bytes], Tuple[Any, int]],
        meter: WireMeter,
        injector: Optional[FaultInjector],
        max_steps: int,
        handlers: Mapping[str, Callable[..., None]],
        on_frame: Callable[[int, int, Any], None],
        fault_label: str,
        event_fields: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self._name = name
        self._decode = decode
        self._meter = meter
        self._injector = injector
        self._max_steps = max_steps
        self._tracer = get_tracer()
        self._handlers: Dict[str, Callable[..., None]] = dict(
            handlers, deliver=self._deliver
        )
        self._on_frame = on_frame
        self._fault_label = fault_label
        self._event_fields = dict(event_fields or {})
        self._reg = REGISTRY if REGISTRY.enabled else None
        self._queue: List[Tuple[float, int, str, tuple]] = []
        self._seq = 0
        self.now = 0.0

    def schedule(self, delay: float, kind: str, payload: tuple) -> None:
        """Queue a ``kind`` event ``delay`` time units from now."""
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, kind, payload))

    def run(self, done: Callable[[], bool]) -> int:
        """Process events until ``done()``; returns the steps taken."""
        queue = self._queue
        handlers = self._handlers
        steps = 0
        while queue:
            steps += 1
            if steps > self._max_steps:
                raise NetTimeoutError(
                    f"{self._name} exceeded {self._max_steps} scheduler "
                    f"steps without completing"
                )
            self.now, _, kind, payload = heapq.heappop(queue)
            handlers[kind](*payload)
            if done():
                return steps
        where, what = self._name.rsplit(" ", 1)
        raise NetTimeoutError(
            f"{where} event queue drained before the {what} completed"
        )

    def transmit(self, dest: int, origin: int, frame: Any) -> None:
        """Encode ``frame``, let the injector drop it, flip one bit of
        it or delay it, and schedule its delivery :data:`BASE_LATENCY`
        later plus any injected delay (delays longer than that reorder
        frames in flight)."""
        wire = self._meter.encode(frame)
        delay = BASE_LATENCY
        if self._injector is not None:
            decision = self._injector.on_send(len(wire) * 8)
            if decision.faulty:
                kind = frame.kind.name
                if decision.drop:
                    self.fault("drop", kind=kind, dest=dest)
                    return
                if decision.corrupt_bit is not None:
                    self.fault("corrupt", kind=kind, dest=dest)
                    index = decision.corrupt_bit
                    mangled = bytearray(wire)
                    mangled[index // 8] ^= 0x80 >> (index % 8)
                    wire = bytes(mangled)
                else:
                    self.fault("delay", kind=kind, dest=dest)
                delay += decision.delay
        self.schedule(delay, "deliver", (dest, origin, wire))

    def _deliver(self, dest: int, origin: int, wire: bytes) -> None:
        try:
            frame, consumed = self._decode(wire)
            if consumed != len(wire):
                raise FrameError("trailing bytes after frame")
        except FrameError:
            # Datagram semantics: a mangled frame is a lost frame, which
            # the dialect's retry machinery repairs.
            if self._tracer:
                self._tracer.event("frame_rejected", dest=dest)
            return
        self._on_frame(dest, origin, frame)

    def fault(self, fault: str, span: Optional[int] = None, **fields: Any) -> None:
        """Account one injected fault: the ``net_faults_injected``
        counter and a ``fault`` trace event (in ``span`` if
        given, else in the current span)."""
        if self._reg is not None:
            self._reg.counter("net_faults_injected").inc(
                fault=fault, transport=self._fault_label
            )
        if self._tracer:
            fields.update(self._event_fields)
            if span is None:
                self._tracer.event("fault", fault=fault, **fields)
            else:
                self._tracer.event_in(span, "fault", fault=fault, **fields)

    def crash_due(self, node: int, progress: int) -> Optional[PartyCrash]:
        """The planned crash ``node`` hits at ``progress``, if any."""
        if self._injector is None:
            return None
        return self._injector.crash_for(node, progress)

    def crashed(
        self, node: int, crash: PartyCrash, span: Optional[int] = None,
        **fields: Any,
    ) -> None:
        """Account a crash the dialect has torn down, and schedule the
        node's ``restart`` event :data:`RESTART_DELAY` later if the
        plan allows one."""
        self.fault("crash", span, **fields, restart=crash.restart)
        if crash.restart:
            self.schedule(RESTART_DELAY, "restart", (node,))

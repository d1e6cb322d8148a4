"""Real-socket transport: the blackboard over asyncio TCP.

This driver runs the same sans-io cores as the loopback transport —
:class:`~repro.net.server.BlackboardServer` behind an
``asyncio.start_server`` accept loop, one :class:`~repro.net.client.
PartyClient` per party behind ``asyncio.open_connection`` — on
``127.0.0.1`` with an OS-assigned port, over the stream layer of
:mod:`repro.net.stream`.  Server-side frame handling is serialized by a
single :class:`asyncio.Lock`, the socket-world analogue of the
simulator processing one event at a time.

TCP delivers reliably, so fault injection stays loopback-only; what
this transport exercises is the real-io path: partial reads, frame
reassembly across chunk boundaries, concurrent writers, and wall-clock
timeouts.  Each party connection runs under a ``net_connection`` tracer
span, and every read is bounded by ``PartyClient.timeout_hint()`` — a
wedged run ends in :class:`~repro.net.errors.NetTimeoutError`, never a
hang.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from ..core.model import Protocol
from ..core.runner import ProtocolRun
from ..obs.trace import get_tracer
from .byzantine import ByzantineConfig, check_run_args, party_endpoint
from .client import RetryPolicy
from .errors import NetError
from .framing import Frame, FrameDecoder, FrameKind, encode_frame
from .server import BlackboardServer
from .sim import WireMeter
from .stream import READ_CHUNK, run_blocking, serve_frames

__all__ = ["run_tcp", "TCP_RETRY_POLICY"]

#: Watchdog knobs scaled for real sockets (seconds, not scheduler
#: steps).  TCP never loses frames, so timeouts fire only when a peer is
#: genuinely wedged — short waits, few retries.
TCP_RETRY_POLICY = RetryPolicy(
    timeout=2.0, backoff=1.5, max_retries=8, max_timeout=15.0
)


def run_tcp(
    protocol: Protocol,
    inputs: Sequence[Any],
    *,
    seed: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    timeout: float = 60.0,
    byzantine: Optional[ByzantineConfig] = None,
) -> ProtocolRun:
    """Execute ``protocol`` over real TCP sockets on ``127.0.0.1``.

    Blocking entry point; spins up its own event loop.  ``timeout``
    bounds the whole run in wall-clock seconds
    (:class:`~repro.net.errors.NetTimeoutError` on expiry).

    With ``byzantine``, each party runs the Bracha reliable-broadcast
    layer and the accept loop doubles as a message hub: ECHO/READY
    votes and speaker SENDs are fanned out party-to-party, and only
    relay-delivered APPENDs reach the blackboard server.  Byzantine
    *fault injection* stays loopback-only (``byzantine.plan`` must be
    ``None``; :func:`repro.net.runner.run_networked` enforces this).
    """
    check_run_args(protocol.num_players, "tcp", byzantine=byzantine)
    if retry is None:
        retry = TCP_RETRY_POLICY
    return run_blocking(
        lambda: _run_async(
            protocol, inputs, seed=seed, retry=retry, byzantine=byzantine
        ),
        timeout,
        entry="run_networked(transport='tcp')",
        coroutine="repro.net.tcp._run_async",
        what="tcp run",
    )


async def _run_async(
    protocol: Protocol,
    inputs: Sequence[Any],
    *,
    seed: Optional[int],
    retry: RetryPolicy,
    byzantine: Optional[ByzantineConfig] = None,
) -> ProtocolRun:
    protocol.validate_inputs(inputs)
    tracer = get_tracer()
    wire = WireMeter(encode_frame, "net", "tcp")
    board_server = BlackboardServer(protocol)
    lock = asyncio.Lock()
    writers: Dict[int, asyncio.StreamWriter] = {}

    def _write(receiver: int, out: Frame) -> None:
        out_writer = writers.get(receiver)
        if out_writer is not None:
            out_writer.write(wire.encode(out))

    def _fan_out(out: Frame, exclude: int) -> None:
        for receiver in sorted(writers):
            if receiver != exclude:
                _write(receiver, out)

    async def handle_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Which party owns this connection — learned from the frames
        # only that party can author (HELLO/SYNC/BYE).  In byzantine
        # mode APPENDs may name *another* party (a relay forwarding the
        # speaker's delivered write), so they neither bind the writer
        # nor identify the connection.
        conn_party: Optional[int] = None

        async def on_frame(frame: Frame) -> bool:
            nonlocal conn_party
            async with lock:
                if byzantine is not None:
                    if frame.kind in (
                        FrameKind.HELLO,
                        FrameKind.SYNC,
                        FrameKind.BYE,
                    ):
                        writers[frame.party] = writer
                        conn_party = frame.party
                    if frame.kind in (FrameKind.ECHO, FrameKind.READY):
                        # Party-to-party vote: hub fan-out, the
                        # blackboard never sees it.
                        _fan_out(frame, exclude=frame.party)
                        return False
                    if (
                        frame.kind == FrameKind.APPEND
                        and conn_party == frame.party
                    ):
                        # The speaker's own APPEND is its Bracha SEND:
                        # fan out to the other parties; only
                        # relay-delivered forwards (from *other*
                        # connections) reach the board.
                        _fan_out(frame, exclude=frame.party)
                        return False
                elif frame.kind in (
                    FrameKind.HELLO,
                    FrameKind.SYNC,
                    FrameKind.APPEND,
                    FrameKind.BYE,
                ):
                    writers[frame.party] = writer
                for receiver, out in board_server.handle(frame):
                    _write(receiver, out)
            return False

        # A corrupt stream or a vanished peer drops the connection; the
        # party's watchdog reconnect logic (SYNC) recovers, or its retry
        # budget turns this into a typed failure.  Our side is closed so
        # that ``wait_closed`` (Python >= 3.12.1) can return.  A run that
        # fails leaves this task to be cancelled at loop shutdown; it
        # ends quietly, because asyncio before 3.12 logs a traceback for
        # every cancelled connection handler.
        try:
            await serve_frames(reader, FrameDecoder(), on_frame)
        except asyncio.CancelledError:
            return
        finally:
            writer.close()

    async def party_task(party: int, parent_span: Optional[int]) -> Any:
        endpoint = party_endpoint(
            protocol, party, inputs[party], seed=seed, retry=retry,
            byzantine=byzantine,
        )
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        # Connection lifetimes interleave inside one event loop, so
        # these are begin/end spans with an explicit parent — a
        # stack-discipline span here would mis-nest under whichever
        # coroutine happened to run last.
        span: Optional[int] = None
        if tracer:
            span = tracer.begin_span(
                "net_connection",
                parent=parent_span,
                party=party,
                transport="tcp",
            )
            tracer.event_in(span, "connect", party=party, transport="tcp")
        decoder = FrameDecoder()

        async def send(result: Any) -> None:
            # The bare client returns frames; the byzantine endpoint
            # returns (dest, frame) actions.  All frames travel up the
            # party's single connection — the accept loop is the hub
            # that interprets destinations (votes and SENDs fan out,
            # everything else is for the blackboard).
            frames: List[Frame] = [
                item[1] if isinstance(item, tuple) else item
                for item in result
            ]
            for frame in frames:
                if span is not None:
                    frame = replace(
                        frame,
                        trace_id=tracer.trace_id,
                        parent_span=span,
                    )
                writer.write(wire.encode(frame))
            if frames:
                await writer.drain()

        try:
            await send(endpoint.connect())
            while not endpoint.done:
                try:
                    data = await asyncio.wait_for(
                        reader.read(READ_CHUNK),
                        timeout=endpoint.timeout_hint(),
                    )
                except asyncio.TimeoutError:
                    await send(endpoint.on_timeout())
                    continue
                if not data:
                    raise NetError(
                        f"server closed the connection to party {party} "
                        f"before it halted"
                    )
                for frame in decoder.feed(data):
                    await send(endpoint.on_frame(frame))
                    if endpoint.done:
                        break
        finally:
            if tracer:
                tracer.event_in(
                    span, "disconnect", party=party, transport="tcp"
                )
                if span is not None:
                    tracer.end_span(span)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        return endpoint

    tcp_server = await asyncio.start_server(
        handle_connection, "127.0.0.1", 0
    )
    port = tcp_server.sockets[0].getsockname()[1]
    run_span: Optional[int] = None
    if tracer:
        run_span = tracer.begin_span(
            "net_run",
            transport="tcp",
            protocol=type(protocol).__name__,
            players=protocol.num_players,
            port=port,
        )
    try:
        endpoints = await asyncio.gather(
            *(
                party_task(party, run_span)
                for party in range(protocol.num_players)
            )
        )
    finally:
        if tracer and run_span is not None:
            tracer.end_span(run_span)
        tcp_server.close()
        await tcp_server.wait_closed()
    return board_server.result(endpoints)


"""Deterministic in-process transport: the blackboard dialect of the
seeded simulator (:mod:`repro.net.sim`).

The loopback runs the *exact* production endpoints — the sans-io
:class:`~repro.net.server.BlackboardServer` and one
:class:`~repro.net.client.PartyClient` per party — on the simulated
network instead of sockets, so every frame still crosses a real,
faultable wire boundary but wall-clock nondeterminism is gone: the
bit-identity acceptance tests (networked transcript == ``run_protocol``
transcript, with and without faults) are exact, not statistical.

The dialect adds watchdog timers and Bracha dispatch.  Each live party
has a watchdog armed for ``PartyClient.timeout_hint()`` time units;
timers carry a generation number, so a timer armed before progress
happened is stale and ignored, and lost or mangled frames are repaired
by the sender's retry policy.  A crash discards the party's client (its
board mirror, rng replica and sampled cache); with restart a fresh
client catches up from the server's replay log, without one the run
raises :class:`~repro.net.errors.CrashedPartyError` — unrecoverable
faults fail typed, never hang.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from ..core.model import Protocol
from ..core.runner import ProtocolRun
from ..obs.trace import get_tracer
from .byzantine import ALL_PARTIES, SERVER, ByzantineConfig, check_run_args, party_endpoint
from .client import RetryPolicy
from .errors import ByzantineQuorumError, CrashedPartyError, RetriesExhaustedError
from .faults import ByzantineAdversary, FaultInjector, FaultPlan
from .framing import Frame, decode_frame, encode_frame
from .server import BlackboardServer
from .sim import Simulator, WireMeter

__all__ = ["LoopbackRunner", "DEFAULT_MAX_STEPS"]

#: Events processed before the scheduler declares the run wedged.
DEFAULT_MAX_STEPS = 200_000


class LoopbackRunner:
    """One networked execution over the in-process loopback transport."""

    def __init__(
        self,
        protocol: Protocol,
        inputs: Sequence[Any],
        *,
        seed: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        byzantine: Optional[ByzantineConfig] = None,
    ) -> None:
        protocol.validate_inputs(inputs)
        check_run_args(protocol.num_players, "loopback", byzantine=byzantine)
        self._protocol = protocol
        self._inputs = list(inputs)
        self._seed = seed
        self._retry = retry if retry is not None else RetryPolicy()
        self._tracer = get_tracer()
        self._injector = FaultInjector(faults) if faults is not None else None
        self._server = BlackboardServer(protocol)
        self._byzantine = byzantine
        self._adversary: Optional[ByzantineAdversary] = None
        if byzantine is not None and byzantine.plan is not None:
            self._adversary = ByzantineAdversary(
                byzantine.plan, protocol.num_players
            )
        #: Per party: the bare client, or the client behind its Bracha
        #: relay in byzantine mode (``None`` while crashed).
        self._endpoints: List[Any] = [None] * protocol.num_players
        #: Open ``net_party`` span per live party (lifetimes interleave,
        #: so these are begin_span/end_span spans, not stack spans).
        self._party_spans: Dict[int, int] = {}
        #: Current watchdog generation per party; a fired timer whose
        #: generation is older than this is stale and ignored.
        self._timer_generation: Dict[int, int] = {}
        self._sim: Optional[Simulator] = None  # built at run() time

    # ------------------------------------------------------------------
    @property
    def faults_injected(self) -> int:
        count = self._injector.injected if self._injector is not None else 0
        if self._adversary is not None:
            count += self._adversary.injected
        return count

    def run(self) -> ProtocolRun:
        """Execute to completion; returns the same :class:`ProtocolRun`
        the in-memory runner would."""
        self._sim = Simulator(
            name="loopback run",
            decode=decode_frame,
            meter=WireMeter(encode_frame, "net", "loopback"),
            injector=self._injector,
            max_steps=DEFAULT_MAX_STEPS,
            handlers={"timer": self._on_timer, "restart": self._on_restart},
            on_frame=self._on_frame,
            fault_label="loopback",
        )
        tracer = self._tracer
        if tracer:
            with tracer.span(
                "net_run",
                transport="loopback",
                protocol=type(self._protocol).__name__,
                players=self._protocol.num_players,
            ):
                return self._run()
        return self._run()

    def _run(self) -> ProtocolRun:
        for party in range(self._protocol.num_players):
            self._spawn(party)
        try:
            steps = self._sim.run(self._complete)
        except RetriesExhaustedError as exc:
            # Retry exhaustion with a Bracha session stuck on the
            # pending round is quorum starvation (silent or withholding
            # liars): the typed byzantine failure, not a retry error.
            pending = len(self._server.board)
            if self._byzantine is not None and any(
                e is not None and e.relay.undelivered(pending)
                for e in self._endpoints
            ):
                raise ByzantineQuorumError(
                    f"round {pending}: retry budget exhausted while the "
                    f"Bracha session was still undelivered — quorum "
                    f"starvation (k={self._protocol.num_players}, "
                    f"f={self._byzantine.f} requires k > 3f)"
                ) from exc
            raise
        return self._result(steps)

    def _complete(self) -> bool:
        if not self._server.halted:
            return False
        return all(e is not None and e.done for e in self._endpoints)

    # ------------------------------------------------------------------
    # Party lifecycle.
    # ------------------------------------------------------------------
    def _spawn(self, party: int) -> None:
        endpoint = party_endpoint(
            self._protocol, party, self._inputs[party], seed=self._seed,
            retry=self._retry, byzantine=self._byzantine,
        )
        self._endpoints[party] = endpoint
        if self._tracer:
            span = self._tracer.begin_span(
                "net_party", party=party, transport="loopback"
            )
            self._party_spans[party] = span
            self._tracer.event_in(
                span, "connect", party=party, transport="loopback"
            )
        self._send(party, endpoint.connect())
        self._arm(party)

    def _arm(self, party: int) -> None:
        endpoint = self._endpoints[party]
        generation = self._timer_generation.get(party, 0) + 1
        self._timer_generation[party] = generation
        if endpoint is None or endpoint.done:
            return  # generation bump above cancels any pending timer
        self._sim.schedule(
            endpoint.timeout_hint(), "timer", (party, generation)
        )

    def _maybe_crash(self, party: int) -> None:
        endpoint = self._endpoints[party]
        crash = self._sim.crash_due(party, len(endpoint.board))
        if crash is None:
            return
        self._endpoints[party] = None
        self._timer_generation[party] = (
            self._timer_generation.get(party, 0) + 1
        )
        span = self._party_spans.pop(party, None) if self._tracer else None
        self._sim.crashed(party, crash, span, party=party)
        if span is not None:
            self._tracer.end_span(span, crashed=True)
        if not crash.restart:
            raise CrashedPartyError(
                f"party {party} crashed with no scheduled restart"
            )

    # ------------------------------------------------------------------
    # Event handlers.
    # ------------------------------------------------------------------
    def _on_frame(self, dest: int, origin: int, frame: Frame) -> None:
        if dest == SERVER:
            for receiver, out in self._server.handle(frame):
                self._sim.transmit(receiver, SERVER, out)
            return
        endpoint = self._endpoints[dest]
        if endpoint is None:
            return  # addressed to a crashed party: lost on the floor
        self._send(dest, endpoint.on_frame(frame))
        self._maybe_crash(dest)
        self._arm(dest)

    def _on_timer(self, party: int, generation: int) -> None:
        if self._timer_generation.get(party) != generation:
            return  # progress happened since this watchdog was armed
        endpoint = self._endpoints[party]
        if endpoint is None or endpoint.done:
            return
        out = endpoint.on_timeout()  # may raise RetriesExhaustedError
        if self._tracer:
            self._tracer.event_in(
                self._party_spans.get(party),
                "retry", party=party, attempt=endpoint.retries,
            )
        self._send(party, out)
        self._arm(party)

    def _on_restart(self, party: int) -> None:
        if self._tracer:
            self._tracer.event("restart", party=party)
        self._spawn(party)

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def _send(self, origin: int, out: List[Any]) -> None:
        """Transmit an endpoint's output: bare frames go to the server,
        ``(destination, frame)`` actions are routed, with
        :data:`ALL_PARTIES` fan-outs passing through the adversary when
        the origin is compromised.  When traced, each frame is stamped
        with the origin party's span so the server can attribute its
        work to the sender."""
        stamp: Optional[int] = None
        if self._tracer:
            stamp = self._party_spans.get(origin)
        for item in out:
            dest, frame = item if isinstance(item, tuple) else (SERVER, item)
            if stamp is not None:
                frame = replace(
                    frame,
                    trace_id=self._tracer.trace_id,
                    parent_span=stamp,
                )
            if dest != ALL_PARTIES:
                self._sim.transmit(dest, origin, frame)
                continue
            dests = [
                p for p in range(self._protocol.num_players) if p != origin
            ]
            if (
                self._adversary is not None
                and origin in self._adversary.plan.compromised
            ):
                decision = self._adversary.on_broadcast(origin, frame, dests)
                for fault in decision.fired:
                    self._sim.fault(f"byz-{fault}", party=origin)
                for d, mangled in decision.sends:
                    self._sim.transmit(d, origin, mangled)
            else:
                for d in dests:
                    self._sim.transmit(d, origin, frame)

    # ------------------------------------------------------------------
    # Completion.
    # ------------------------------------------------------------------
    def _result(self, steps: int) -> ProtocolRun:
        run = self._server.result(self._endpoints)
        if self._tracer:
            for party in sorted(self._party_spans):
                self._tracer.end_span(self._party_spans[party])
            self._party_spans.clear()
            self._tracer.event(
                "net_run_complete",
                bits=run.bits_communicated,
                rounds=run.rounds,
                steps=steps,
                faults=self.faults_injected,
            )
        return run

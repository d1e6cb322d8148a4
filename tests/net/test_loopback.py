"""Loopback transport: bit-identity, determinism, guards, observability.

The acceptance contract of ``repro.net``: a networked execution returns
the *same* :class:`~repro.core.runner.ProtocolRun` as
:func:`~repro.core.runner.run_protocol` under the same coin seed —
transcript, output, and counted bits — and every failure mode is a
typed exception, never a hang.  This module pins those properties on
hand-picked protocols; the full registry sweep lives in
``test_registry_coverage.py`` and generated protocols in
``test_generated.py``.
"""

import random
from typing import Any, Optional

import pytest

from repro.core.model import Message, Protocol, ProtocolViolation, Transcript
from repro.core.runner import run_protocol
from repro.information.distribution import DiscreteDistribution
from repro.net import (
    BlackboardServer,
    Frame,
    FrameKind,
    LoopbackRunner,
    PartyClient,
    RetryPolicy,
    run_networked,
)
from repro.net.errors import OrderViolationError
from repro.obs import (
    REGISTRY,
    RecordingTracer,
    disable_metrics,
    enable_metrics,
    using_tracer,
)
from repro.protocols import (
    NaiveDisjointnessProtocol,
    OptimalDisjointnessProtocol,
    protocol_case,
)


class NeverHaltsProtocol(Protocol):
    """Player 0 writes '0' forever — the hang-guard test subject, with a
    declared bound of 16 messages."""

    max_messages = 16

    def __init__(self) -> None:
        super().__init__(2)

    def initial_state(self) -> Any:
        return None

    def advance_state(self, state: Any, message: Message) -> Any:
        return None

    def next_speaker(self, state: Any, board: Transcript) -> Optional[int]:
        return 0

    def message_distribution(
        self, state: Any, player: int, player_input: Any, board: Transcript
    ) -> DiscreteDistribution:
        return DiscreteDistribution({"0": 1.0})

    def output(self, state: Any, board: Transcript) -> Any:  # pragma: no cover
        return None

    def validate_inputs(self, inputs) -> None:
        pass


def _case_runs(name, seed=17):
    case = protocol_case(name)
    inputs = case.input_tuples()[-1]
    reference = run_protocol(case.build(), inputs, rng=random.Random(seed))
    networked = run_networked(case.build(), inputs, seed=seed)
    return reference, networked


class TestBitIdentity:
    def test_deterministic_protocol(self):
        reference, networked = _case_runs("sequential-and")
        assert networked == reference

    def test_randomized_protocol(self):
        reference, networked = _case_runs("functional-random")
        assert networked == reference
        assert networked.transcript == reference.transcript
        assert networked.bits_communicated == reference.bits_communicated

    def test_no_seed_needed_for_deterministic_protocols(self):
        case = protocol_case("optimal-disjointness")
        inputs = case.input_tuples()[0]
        reference = run_protocol(case.build(), inputs)
        assert run_networked(case.build(), inputs) == reference

    def test_repeated_runs_are_identical(self):
        case = protocol_case("functional-random")
        inputs = case.input_tuples()[2]
        runs = [
            run_networked(case.build(), inputs, seed=5) for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_seed_changes_sampled_transcripts(self):
        case = protocol_case("functional-random")
        inputs = case.input_tuples()[0]
        transcripts = {
            run_networked(case.build(), inputs, seed=s).transcript
            for s in range(20)
        }
        assert len(transcripts) > 1  # the seed really reaches the coins


class TestGuards:
    def test_hang_guard_matches_run_protocol(self):
        """Exceeding the declared bound raises the *same*
        ProtocolViolation as the in-memory runner, before any partial
        result is observable."""
        protocol = NeverHaltsProtocol()
        with pytest.raises(
            ProtocolViolation, match="did not halt within 16 messages"
        ) as in_memory:
            run_protocol(protocol, (0, 0))
        with pytest.raises(
            ProtocolViolation, match="did not halt within 16 messages"
        ) as networked:
            run_networked(NeverHaltsProtocol(), (0, 0))
        assert str(networked.value) == str(in_memory.value)

    @pytest.mark.parametrize(
        "cls, args, inputs",
        [
            (NaiveDisjointnessProtocol, (8, 2), (0b11110000, 0b00001111)),
            (OptimalDisjointnessProtocol, (64, 4),
             (2**64 - 2, 2**64 - 3, 2**64 - 5, 7)),
        ],
        ids=["naive", "optimal"],
    )
    def test_exact_budget_is_enough(self, cls, args, inputs):
        """Both runners accept a run of exactly its declared bound of
        messages and reject one that needs one more, with one text."""
        rounds = run_protocol(cls(*args), inputs).rounds

        def declaring(bound):
            return type(cls.__name__, (cls,), {"max_messages": bound})(*args)

        protocol = declaring(rounds)
        in_memory = run_protocol(protocol, inputs)
        networked = run_networked(protocol, inputs, transport="loopback")
        assert in_memory.rounds == networked.rounds == rounds
        assert networked.transcript == in_memory.transcript
        errors = []
        for run in (run_protocol, run_networked):
            with pytest.raises(ProtocolViolation) as info:
                run(declaring(rounds - 1), inputs)
            errors.append(str(info.value))
        assert errors == [
            f"protocol did not halt within {rounds - 1} messages"
        ] * 2

    def test_missing_seed_raises_like_missing_rng(self):
        case = protocol_case("functional-random")
        inputs = case.input_tuples()[0]
        with pytest.raises(ProtocolViolation, match="private randomness"):
            run_protocol(case.build(), inputs)
        with pytest.raises(ProtocolViolation, match="private randomness"):
            run_networked(case.build(), inputs)

    def test_unknown_transport_rejected(self):
        case = protocol_case("sequential-and")
        with pytest.raises(ValueError, match="unknown transport"):
            run_networked(
                case.build(), case.input_tuples()[0], transport="carrier-pigeon"
            )


class TestSansIoEndpoints:
    """Direct state-machine checks, no scheduler involved."""

    def test_server_enforces_speaking_order(self):
        case = protocol_case("sequential-and")
        server = BlackboardServer(case.build())
        expected = server.expected_speaker
        wrong = (expected + 1) % case.build().num_players
        sends = server.handle(
            Frame(kind=FrameKind.APPEND, party=wrong, round_index=0, payload="1")
        )
        assert [f.kind for _, f in sends] == [FrameKind.ERROR]
        assert len(server.board) == 0

    def test_server_idempotent_retry(self):
        case = protocol_case("sequential-and")
        protocol = case.build()
        server = BlackboardServer(protocol)
        server.handle(Frame(kind=FrameKind.HELLO, party=0))
        append = Frame(
            kind=FrameKind.APPEND, party=0, round_index=0, payload="1"
        )
        first = server.handle(append)
        assert any(f.kind == FrameKind.BROADCAST for _, f in first)
        assert len(server.board) == 1
        # The same APPEND again (lost confirmation): replayed, not an
        # error, and the board does not grow.
        second = server.handle(append)
        assert [f.kind for _, f in second] == [FrameKind.BROADCAST]
        assert len(server.board) == 1
        # A *conflicting* retry for the same round is a real violation.
        conflict = server.handle(
            Frame(kind=FrameKind.APPEND, party=0, round_index=0, payload="0")
        )
        assert [f.kind for _, f in conflict] == [FrameKind.ERROR]

    def test_client_raises_on_server_error_frame(self):
        case = protocol_case("sequential-and")
        client = PartyClient(case.build(), 0, 1)
        with pytest.raises(OrderViolationError):
            client.on_frame(Frame(kind=FrameKind.ERROR, party=0))

    def test_client_buffers_out_of_order_broadcasts(self):
        case = protocol_case("full-broadcast-and")
        protocol = case.build()
        inputs = case.input_tuples()[-1]
        reference = run_protocol(protocol, inputs)
        # Party k-1 observes the first two rounds delivered in reverse.
        observer = PartyClient(protocol, 2, inputs[2])
        broadcasts = [
            Frame(
                kind=FrameKind.BROADCAST,
                party=m.speaker,
                round_index=i,
                payload=m.bits,
            )
            for i, m in enumerate(reference.transcript)
        ]
        observer.on_frame(broadcasts[1])
        assert len(observer.board) == 0  # buffered, not applied
        observer.on_frame(broadcasts[0])
        assert len(observer.board) == 2  # both applied, in order

    def test_retry_policy_validation_and_backoff(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=0)
        policy = RetryPolicy(
            timeout=2.0, backoff=2.0, max_retries=10, max_timeout=9.0
        )
        assert policy.timeout_after(0) == 2.0
        assert policy.timeout_after(1) == 4.0
        assert policy.timeout_after(2) == 8.0
        assert policy.timeout_after(3) == 9.0  # capped


class TestObservability:
    def setup_method(self):
        enable_metrics(reset=True)

    def teardown_method(self):
        disable_metrics()

    def test_net_counters_and_spans(self):
        case = protocol_case("sequential-and")
        inputs = case.input_tuples()[-1]
        tracer = RecordingTracer()
        with using_tracer(tracer):
            run = run_networked(case.build(), inputs, seed=3)
        frames = REGISTRY.counter("net_frames_sent")
        assert frames.value(kind="APPEND", transport="loopback") >= len(
            run.transcript
        )
        assert frames.value(kind="BROADCAST", transport="loopback") > 0
        assert (
            REGISTRY.counter("net_bytes_on_wire").value(transport="loopback")
            > 0
        )
        spans = [e for e in tracer.events if e.name == "net_run"]
        assert {e.kind for e in spans} == {"begin", "end"}
        assert tracer.named("net_run_complete")[0].fields["bits"] == (
            run.bits_communicated
        )
        assert len(tracer.named("connect")) == case.build().num_players

    def test_metrics_off_costs_nothing_and_changes_nothing(self):
        case = protocol_case("functional-random")
        inputs = case.input_tuples()[0]
        with_metrics = run_networked(case.build(), inputs, seed=9)
        disable_metrics()
        without_metrics = run_networked(case.build(), inputs, seed=9)
        enable_metrics(reset=True)  # so teardown's state is clean
        assert with_metrics == without_metrics

"""End-to-end instrumentation contracts.

The load-bearing guarantees:

* tracing is *observation only* — a traced run produces exactly the
  same ProtocolRun (transcript, output, bits) as an untraced run;
* the per-message ``bits`` events are a complete ledger — they sum to
  ``bits_communicated``;
* a recorded ``run_protocol`` trace survives a JSONL round-trip;
* every instrumented subsystem feeds its advertised counters.
"""

import io
import random

import pytest

from repro.compression.sampling import (
    run_naive_dart_protocol,
    simulate_sampling_round,
)
from repro.core import (
    joint_transcript_distribution,
    run_protocol,
    transcript_distribution,
)
from repro.information import DiscreteDistribution
from repro.obs import (
    JsonlTracer,
    RecordingTracer,
    collecting,
    read_trace,
    using_tracer,
)
from repro.protocols import (
    NoisySequentialAndProtocol,
    SequentialAndProtocol,
)


def _dart_pair():
    eta = DiscreteDistribution({0: 0.7, 1: 0.2, 2: 0.1})
    nu = DiscreteDistribution({0: 0.2, 1: 0.4, 2: 0.4})
    return eta, nu, [0, 1, 2]


class TestTracedEqualsUntraced:
    def test_deterministic_protocol(self):
        p = SequentialAndProtocol(5)
        untraced = run_protocol(p, (1, 1, 1, 0, 1))
        with using_tracer(RecordingTracer()):
            traced = run_protocol(p, (1, 1, 1, 0, 1))
        assert traced.transcript == untraced.transcript
        assert traced.output == untraced.output
        assert traced.bits_communicated == untraced.bits_communicated
        assert traced.rounds == untraced.rounds

    def test_randomized_protocol_same_rng_stream(self):
        # Tracing must not consume randomness: identical seeds give
        # identical runs with and without a tracer.
        p = NoisySequentialAndProtocol(6, 0.3)
        untraced = run_protocol(p, (1,) * 6, rng=random.Random(42))
        with using_tracer(RecordingTracer()):
            traced = run_protocol(p, (1,) * 6, rng=random.Random(42))
        assert traced.transcript == untraced.transcript
        assert traced.output == untraced.output

    def test_metrics_enabled_does_not_change_results(self):
        p = NoisySequentialAndProtocol(4, 0.2)
        plain = run_protocol(p, (1, 1, 1, 1), rng=random.Random(7))
        with collecting():
            collected = run_protocol(p, (1, 1, 1, 1), rng=random.Random(7))
        assert collected.transcript == plain.transcript

    def test_naive_dart_protocol_unaffected_by_tracer(self):
        eta, nu, universe = _dart_pair()
        plain = run_naive_dart_protocol(
            eta, nu, random.Random(3), universe
        )
        with using_tracer(RecordingTracer()):
            traced = run_naive_dart_protocol(
                eta, nu, random.Random(3), universe
            )
        assert traced.message == plain.message
        assert traced.receiver_value == plain.receiver_value

    def test_fast_sampler_unaffected_by_tracer(self):
        eta, nu, universe = _dart_pair()
        plain = simulate_sampling_round(
            eta, nu, random.Random(5), universe=universe
        )
        with using_tracer(RecordingTracer()):
            traced = simulate_sampling_round(
                eta, nu, random.Random(5), universe=universe
            )
        assert traced == plain

    def test_transcript_distribution_unaffected(self):
        p = NoisySequentialAndProtocol(3, 0.25)
        plain = transcript_distribution(p, (1, 1, 1))
        with using_tracer(RecordingTracer()):
            traced = transcript_distribution(p, (1, 1, 1))
        assert dict(plain.items()) == dict(traced.items())


class TestMessageLedger:
    def test_bits_events_sum_to_communication(self):
        tracer = RecordingTracer()
        p = SequentialAndProtocol(6)
        with using_tracer(tracer):
            run = run_protocol(p, (1, 1, 1, 1, 1, 1))
        messages = tracer.named("message")
        assert len(messages) == run.rounds
        assert (
            sum(e.fields["bits"] for e in messages)
            == run.bits_communicated
        )

    def test_per_message_fields(self):
        tracer = RecordingTracer()
        p = SequentialAndProtocol(4)
        with using_tracer(tracer):
            run = run_protocol(p, (1, 1, 0, 1))
        messages = tracer.named("message")
        assert [e.fields["speaker"] for e in messages] == [0, 1, 2]
        assert [e.fields["round"] for e in messages] == [0, 1, 2]
        cumulative = [e.fields["cumulative_bits"] for e in messages]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == run.bits_communicated

    def test_run_wrapped_in_span_with_result_event(self):
        tracer = RecordingTracer()
        with using_tracer(tracer):
            run_protocol(SequentialAndProtocol(3), (1, 0, 1))
        kinds = [(e.name, e.kind) for e in tracer.events]
        assert kinds[0] == ("run_protocol", "begin")
        assert kinds[-1] == ("run_protocol", "end")
        (complete,) = tracer.named("run_complete")
        assert complete.fields["bits"] == 2
        assert complete.fields["output"] == 0

    def test_global_tracer_reaches_runner(self):
        tracer = RecordingTracer()
        with using_tracer(tracer):
            run_protocol(SequentialAndProtocol(3), (1, 1, 1))
        assert len(tracer.named("message")) == 3


class TestJsonlRunTrace:
    def test_recorded_run_round_trips(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        tracer = JsonlTracer(path)
        p = SequentialAndProtocol(5)
        with using_tracer(tracer):
            run = run_protocol(p, (1, 1, 1, 1, 1))
        tracer.close()
        events = read_trace(path)
        messages = [e for e in events if e.name == "message"]
        assert (
            sum(e.fields["bits"] for e in messages)
            == run.bits_communicated
        )
        begins = [e for e in events if e.kind == "begin"]
        ends = [e for e in events if e.kind == "end"]
        assert len(begins) == len(ends) == 1
        assert begins[0].fields["protocol"] == "SequentialAndProtocol"


class TestSubsystemCounters:
    def test_runner_counters(self):
        with collecting() as reg:
            run_protocol(SequentialAndProtocol(4), (1, 1, 1, 1))
        assert reg.counter("runner_executions").total() == 1
        assert reg.counter("bits_written").total() == 4
        assert reg.counter("runner_messages").total() == 4
        assert reg.histogram("message_bits").value().count == 4

    def test_tree_counters(self):
        p = NoisySequentialAndProtocol(3, 0.1)
        with collecting() as reg:
            dist = transcript_distribution(p, (1, 1, 1))
        name = "NoisySequentialAndProtocol"
        assert reg.counter("tree_leaves").value(protocol=name) == len(
            dist.support()
        )
        # Internal nodes + leaves: strictly more nodes than leaves.
        assert reg.counter("tree_nodes_expanded").value(
            protocol=name
        ) > len(dist.support())
        assert reg.histogram("tree_depth").value(protocol=name).max == 3

    def test_joint_distribution_event(self):
        tracer = RecordingTracer()
        p = SequentialAndProtocol(2)
        scenarios = DiscreteDistribution(
            {((1, 1),): 0.5, ((1, 0),): 0.5}
        )
        with using_tracer(tracer):
            joint_transcript_distribution(p, scenarios)
        (event,) = tracer.named("joint_enumerated")
        assert event.fields["scenarios"] == 2
        assert event.fields["distinct_inputs"] == 2

    def test_sampler_counters_naive(self):
        eta, nu, universe = _dart_pair()
        rng = random.Random(0)
        with collecting() as reg:
            for _ in range(50):
                run_naive_dart_protocol(eta, nu, rng, universe)
        assert reg.counter("sampler_rounds").value(path="naive") == 50
        thrown = reg.counter("sampler_darts_thrown").value(path="naive")
        rejected = reg.counter("sampler_darts_rejected").value(
            path="naive"
        )
        assert thrown >= 50          # at least the accepted darts
        assert 0 <= rejected < thrown
        assert reg.histogram("sampler_bits").value(path="naive").count == 50

    def test_sampler_counters_fast(self):
        eta, nu, universe = _dart_pair()
        rng = random.Random(1)
        with collecting() as reg:
            for _ in range(20):
                simulate_sampling_round(eta, nu, rng, universe=universe)
        assert reg.counter("sampler_rounds").value(path="fast") == 20
        assert reg.histogram("sampler_candidates").value(
            path="fast"
        ).count == 20

    def test_sampler_round_trace_fields(self):
        eta, nu, universe = _dart_pair()
        tracer = RecordingTracer()
        with using_tracer(tracer):
            result = run_naive_dart_protocol(
                eta, nu, random.Random(2), universe
            )
        (event,) = tracer.named("sampler_round")
        assert event.fields["path"] == "naive"
        assert event.fields["s"] == result.message.s
        assert event.fields["candidates"] == result.message.candidate_count
        assert event.fields["bits"] == result.message.cost.total_bits
        assert (
            event.fields["darts_rejected"] == result.darts_used - 1
        )

class TestDisabledOverhead:
    def test_no_metrics_written_when_disabled(self):
        from repro.obs import REGISTRY

        REGISTRY.reset()
        run_protocol(SequentialAndProtocol(3), (1, 1, 1))
        assert REGISTRY.snapshot().empty

    def test_null_tracer_skips_span_machinery(self):
        # The runner takes the `if tracer:` fast path: no span counter
        # advances on the NullTracer.
        from repro.obs import NULL_TRACER

        before = NULL_TRACER._next_span
        run_protocol(SequentialAndProtocol(3), (1, 1, 1))
        assert NULL_TRACER._next_span == before

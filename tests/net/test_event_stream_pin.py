"""Pinned event streams of the two seeded simulators.

A faulted loopback run is a deterministic function of its seeds: the
fault injector's draws, the event schedule, every trace event and every
wire counter follow from them.  These pins hold a SHA-256 digest of the
ordered trace-event stream (name, kind, span ids and fields, with
timestamps and span durations dropped) plus the wire and fault counters,
for one ``chaos_plan(7)`` blackboard run and one faulted fabric sweep.
Any change to scheduling order, fault accounting or event fields moves
the digest.

Nothing is frozen: no frame carries a wall-clock reading, and the
fault injector draws a fixed number of variates per frame, so the
schedule is the same on every run.  It does not depend on the trace id
either (the envelope's context field has one width, traced or not):
an untraced run and runs under two trace ids inject the same faults and
take the same retries.
"""

import hashlib
import json

from repro.fabric.loopback import run_loopback_sweep
from repro.net import ByzantineConfig, run_networked
from repro.net.faults import (
    FaultPlan,
    PartyCrash,
    byzantine_fault_plans,
    chaos_plan,
)
from repro.obs import RecordingTracer, collecting, using_tracer
from repro.protocols import SequentialAndProtocol, protocol_case
from repro.store.keys import ResultKey
from repro.store.sweep import encode_result

_TRACE_ID = 0x5EED

NET_DIGEST = "ac0f195b5827955a6c37a35a275fabf5645ce8a8487b5a103f11d0ad90716461"
BYZANTINE_DIGEST = (
    "6e1a0be5326a9b9131ca5b0a77b6b17acf1cec2ada67b8d831fbe87429e0a88b"
)
FABRIC_DIGEST = (
    "2573baafd7fcb97025775600d81d04967fd70659638441493cfec7306ab3fa0d"
)

#: Counters the loopback transports report, by metric name.
_WIRE_COUNTERS = (
    "net_frames_sent",
    "net_bytes_on_wire",
    "net_faults_injected",
    "fabric_frames",
    "fabric_bytes_on_wire",
)


def _digest(tracer, registry):
    records = []
    for event in tracer.events:
        fields = {k: v for k, v in event.fields.items() if k != "elapsed_s"}
        records.append(
            [event.name, event.kind, event.span, event.parent, event.trace,
             fields]
        )
    snapshot = registry.snapshot().counters
    counters = {
        name: sorted([list(key), value] for key, value in snapshot[name].items())
        for name in _WIRE_COUNTERS
        if name in snapshot
    }
    blob = json.dumps([records, counters], sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _fault_events(tracer):
    return len(tracer.named("fault"))


def test_chaos_loopback_run_event_stream():
    case = protocol_case("noisy-sequential-and")
    inputs = case.input_tuples()[-1]
    tracer = RecordingTracer(trace_id=_TRACE_ID)
    with collecting() as registry, using_tracer(tracer):
        run_networked(case.build(), inputs, seed=8, faults=chaos_plan(7))
        digest = _digest(tracer, registry)
    (complete,) = tracer.named("net_run_complete")
    assert complete.fields["faults"] == 20
    assert _fault_events(tracer) == 21  # the 20 plus one crash
    assert digest == NET_DIGEST


def test_byzantine_loopback_run_event_stream():
    plan = byzantine_fault_plans(4242, party=0)["byz-chaos"]
    tracer = RecordingTracer(trace_id=_TRACE_ID)
    with collecting() as registry, using_tracer(tracer):
        run_networked(
            SequentialAndProtocol(4),
            (1, 1, 1, 1),
            seed=4242,
            byzantine=ByzantineConfig(f=1, plan=plan),
        )
        digest = _digest(tracer, registry)
    (complete,) = tracer.named("net_run_complete")
    assert complete.fields["faults"] == _fault_events(tracer) == 11
    assert digest == BYZANTINE_DIGEST


def _fake_keys(count):
    return [
        ResultKey(experiment="FAKE", params={"i": i}, seed=None,
                  version="v-test")
        for i in range(count)
    ]


def _fake_compute(key):
    return encode_result({"i": key.params["i"], "value": key.params["i"] ** 2})


def _fabric_plan():
    return FaultPlan(
        seed=7,
        drop_rate=0.15,
        corrupt_rate=0.15,
        delay_rate=0.3,
        max_delay=6.0,
        crashes=(PartyCrash(party=0, after_round=1, restart=True),),
        max_faults=24,
    )


def _run_fabric_sweep():
    return run_loopback_sweep(
        _fake_keys(6), store=None, workers=3, faults=_fabric_plan(),
        max_attempts=60, compute=_fake_compute,
    )


def _faulted_fabric_sweep():
    tracer = RecordingTracer(trace_id=_TRACE_ID)
    with collecting() as registry, using_tracer(tracer):
        results = _run_fabric_sweep()
        digest = _digest(tracer, registry)
    assert results == {i: _fake_compute(k) for i, k in enumerate(_fake_keys(6))}
    return tracer, digest


def test_faulted_fabric_sweep_event_stream():
    tracer, digest = _faulted_fabric_sweep()
    assert _fault_events(tracer) == 21
    assert digest == FABRIC_DIGEST


def test_faulted_fabric_sweep_replays_on_the_real_clock():
    assert _faulted_fabric_sweep()[1] == _faulted_fabric_sweep()[1]


def _fault_totals(tracer):
    """Faults injected and retries taken by the chaos blackboard run and
    the faulted fabric sweep, under ``tracer`` (``None``: untraced)."""
    case = protocol_case("noisy-sequential-and")
    with collecting() as registry, using_tracer(tracer):
        run_networked(
            case.build(), case.input_tuples()[-1], seed=8,
            faults=chaos_plan(7),
        )
        _run_fabric_sweep()
        counters = registry.snapshot().counters
    return {
        name: sorted(counters.get(name, {}).items())
        for name in ("net_faults_injected", "net_retries", "fabric_retries")
    }


def test_fault_schedule_does_not_depend_on_the_trace_id():
    untraced = _fault_totals(None)
    assert untraced["net_faults_injected"] and untraced["net_retries"]
    assert untraced["fabric_retries"]
    for trace_id in (1, 2**63 - 5):
        assert _fault_totals(RecordingTracer(trace_id=trace_id)) == untraced

"""Pinned event streams of the two seeded simulators.

A faulted loopback run is a deterministic function of its seeds: the
fault injector's draws, the event schedule, every trace event and every
wire counter follow from them.  These pins hold a SHA-256 digest of the
ordered trace-event stream (name, kind, span ids and fields, with
timestamps and span durations dropped) plus the wire and fault counters,
for one ``chaos_plan(7)`` blackboard run and one faulted fabric sweep.
Any change to scheduling order, fault accounting or event fields moves
the digest.

Nothing is frozen: no frame carries a wall-clock reading, so the
fabric sweep's frame lengths, and with them the fault injector's
corrupt-bit draws, are the same on every run.
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

NET_DIGEST = "aaf6bf943bc50aa5992eb329ab7fd0d10e7f6ab084dfbf5cabfe7db89d6bce76"
BYZANTINE_DIGEST = (
    "5aabb97702f867904bdcca15670a23bdf38d15ff40c5ce38c577ab73b836135e"
)
FABRIC_DIGEST = (
    "6900bdcc49480c9bb7679948ba4e20ebe0532e5e8515722a74cebefb7d8c3c6f"
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
    with collecting() as registry:
        run_networked(
            case.build(), inputs, seed=8, faults=chaos_plan(7), tracer=tracer
        )
        digest = _digest(tracer, registry)
    (complete,) = tracer.named("net_run_complete")
    assert complete.fields["faults"] == 15
    assert _fault_events(tracer) == 16  # the 15 plus one crash
    assert digest == NET_DIGEST


def test_byzantine_loopback_run_event_stream():
    plan = byzantine_fault_plans(4242, party=0)["byz-chaos"]
    tracer = RecordingTracer(trace_id=_TRACE_ID)
    with collecting() as registry:
        run_networked(
            SequentialAndProtocol(4),
            (1, 1, 1, 1),
            seed=4242,
            tracer=tracer,
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


def _faulted_fabric_sweep():
    plan = FaultPlan(
        seed=7,
        drop_rate=0.15,
        corrupt_rate=0.15,
        delay_rate=0.3,
        max_delay=6.0,
        crashes=(PartyCrash(party=1, after_round=1, restart=True),),
        max_faults=24,
    )
    tracer = RecordingTracer(trace_id=_TRACE_ID)
    with collecting() as registry, using_tracer(tracer):
        results = run_loopback_sweep(
            _fake_keys(6), store=None, workers=3, faults=plan,
            max_attempts=60, compute=_fake_compute,
        )
        digest = _digest(tracer, registry)
    assert results == {i: _fake_compute(k) for i, k in enumerate(_fake_keys(6))}
    return tracer, digest


def test_faulted_fabric_sweep_event_stream():
    tracer, digest = _faulted_fabric_sweep()
    assert _fault_events(tracer) == 12
    assert digest == FABRIC_DIGEST


def test_faulted_fabric_sweep_replays_on_the_real_clock():
    assert _faulted_fabric_sweep()[1] == _faulted_fabric_sweep()[1]

"""The real-socket transport: one bounded TCP test on 127.0.0.1.

The loopback suite proves the endpoint logic; this test proves the
asyncio driver delivers the same bits over actual sockets — partial
reads, frame reassembly, and concurrent party connections included.
Kept to a handful of protocols so the smoke job stays fast; fault
injection is a loopback-only feature and is asserted rejected here.
"""

import random

import pytest

from repro.core.runner import run_protocol
from repro.net import FaultPlan, run_networked
from repro.obs import REGISTRY, collecting
from repro.obs.telemetry import TelemetrySink, using_telemetry
from repro.protocols import protocol_case


def test_tcp_matches_in_memory_runner():
    for name in ("sequential-and", "two-party-disjointness", "functional-random"):
        case = protocol_case(name)
        inputs = case.input_tuples()[-1]
        reference = run_protocol(
            case.build(), inputs, rng=random.Random(31)
        )
        networked = run_networked(
            case.build(), inputs, seed=31, transport="tcp", timeout=60.0
        )
        assert networked == reference, name


def test_tcp_rejects_fault_plans():
    case = protocol_case("sequential-and")
    with pytest.raises(ValueError, match="loopback-only"):
        run_networked(
            case.build(),
            case.input_tuples()[0],
            transport="tcp",
            faults=FaultPlan(drop_rate=0.1),
        )


def test_tcp_wire_bytes_reach_telemetry():
    case = protocol_case("sequential-and")
    sink = TelemetrySink(None)
    with collecting(), using_telemetry(sink):
        sink.start_sweep("tcp", 1)
        run_networked(
            case.build(), case.input_tuples()[-1], transport="tcp",
            timeout=60.0,
        )
        snap = sink.snapshot()
        sink.finish_sweep()
        counted = REGISTRY.counter("net_bytes_on_wire").value(transport="tcp")
    assert snap["bytes_on_wire"] > 0
    assert snap["bytes_on_wire"] == counted

"""E12 (extension) — streaming space via the disjointness reduction."""

from repro.core import run_protocol
from repro.experiments import e12_streaming_space as e12
from repro.experiments import partition_instance
from repro.streaming import (
    CappedFrequencyCounter,
    StreamingSimulationProtocol,
)

from conftest import save_and_echo

_CACHE = {}


def full_table():
    if "table" not in _CACHE:
        _CACHE["table"] = e12.run()
    return _CACHE["table"]


def test_e12_reduction_kernel(results_dir):
    """One induced-protocol execution (n=256, k=8)."""
    n, k = 256, 8
    protocol = StreamingSimulationProtocol(
        CappedFrequencyCounter(n, cap=k), k
    )
    inputs = partition_instance(n, k)
    run = run_protocol(protocol, inputs)
    assert run.output == 1

    table = full_table()
    save_and_echo(table, results_dir)


def test_e12_space_exceeds_implied_bound():
    for row in full_table().rows:
        _n, _k, space, bits, bound, ratio = row
        assert space >= bound
        assert bits == (_k - 1) * space + 1

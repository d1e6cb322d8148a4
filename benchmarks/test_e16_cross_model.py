"""E16 (extension) — cross-model disjointness: broadcast vs coordinator."""

from repro.experiments import e16_cross_model as e16
from repro.experiments.workloads import partition_instance
from repro.topology import (
    COORDINATOR,
    CoordinatorDisjointnessProtocol,
    run_on_medium,
)

from conftest import experiment_store, save_and_echo

_CACHE = {}


def full_table():
    if "table" not in _CACHE:
        _CACHE["table"] = e16.run(store=experiment_store())
    return _CACHE["table"]


def test_e16_coordinator_kernel(results_dir):
    """One coordinator relay execution (n=1024, k=16)."""
    protocol = CoordinatorDisjointnessProtocol(1024, 16)
    inputs = partition_instance(1024, 16)
    run = run_on_medium(protocol, COORDINATOR, inputs)
    assert run.bits_communicated == 1024 * 31

    table = full_table()
    save_and_echo(table, results_dir)


def test_e16_model_separation():
    table = full_table()
    grid = [(row[0], row[1]) for row in table.rows]
    measurements = [(row[2], row[3], row[4]) for row in table.rows]
    n, broadcast_slope, coordinator_slope = e16.growth_slopes(
        grid, measurements
    )
    # The measured growth rates vs k at fixed n: Theta(nk) against
    # Theta(n log k + k).
    assert coordinator_slope > 0.9
    assert broadcast_slope < 0.6
    assert coordinator_slope - broadcast_slope > 0.4
    # The relay's per-link price is the bounded constant (2k-1)/k < 2.
    for row in table.rows:
        assert 1.0 < row[6] < 2.0

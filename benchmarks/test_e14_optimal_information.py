"""E14 (extension) — certified minimum information cost of AND_k."""

import math

from repro.experiments import e14_optimal_information as e14
from repro.lowerbounds import minimum_zero_error_cic

from conftest import experiment_store, save_and_echo

_CACHE = {}


def full_table():
    if "table" not in _CACHE:
        _CACHE["table"] = e14.run(store=experiment_store())
    return _CACHE["table"]


def test_e14_dp_kernel(results_dir):
    """One certified-minimum computation (k = 8)."""
    value = minimum_zero_error_cic(8)
    assert value > 1.0

    table = full_table()
    save_and_echo(table, results_dir)


def test_e14_sequential_protocol_is_optimal_everywhere():
    for row in full_table().rows:
        k, optimum, sequential, optimal, ratio = row
        assert optimal == "yes", k
        assert ratio >= 0.43, k
        assert optimum >= 0.43 * math.log2(k) - 1e-9

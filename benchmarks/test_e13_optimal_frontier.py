"""E13 (extension) — machine-checked Lemma 6 via exact optimization."""

from repro.experiments import e13_optimal_frontier as e13
from repro.lowerbounds import (
    lemma6_distribution,
    optimal_distributional_error,
)

from conftest import save_and_echo

_CACHE = {}


def full_table():
    if "table" not in _CACHE:
        _CACHE["table"] = e13.run()
    return _CACHE["table"]


def test_e13_dp_kernel(results_dir):
    """One exact-optimum computation (k = 8, half budget)."""
    mu = lemma6_distribution(8, 0.2)
    value = optimal_distributional_error(mu, lambda x: int(all(x)), 4)
    assert value > 0

    table = full_table()
    save_and_echo(table, results_dir)


def test_e13_certified_tight_everywhere():
    for row in full_table().rows:
        _k, _b, optimum, bound, tight = row
        assert tight == "yes"
        assert optimum >= bound - 1e-9

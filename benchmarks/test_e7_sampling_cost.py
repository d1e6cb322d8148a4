"""E7 — Lemma 7: sampling-protocol cost is D + O(log(D + 1))."""

import random

from repro.compression import run_naive_dart_protocol, simulate_sampling_round
from repro.experiments import e7_sampling_cost as e7

from conftest import save_and_echo

_CACHE = {}


def full_table():
    if "table" not in _CACHE:
        _CACHE["table"] = e7.run()
    return _CACHE["table"]


def test_e7_naive_sampler_kernel(results_dir):
    """One literal dart-protocol round (4-outcome universe)."""
    eta, nu = e7.make_pair(4.0)
    rng = random.Random(0)
    universe = sorted(eta.support())
    result = run_naive_dart_protocol(eta, nu, rng, universe)
    assert result.agreed

    table = full_table()
    save_and_echo(table, results_dir)


def test_e7_fast_sampler_kernel():
    """One exact-distribution simulated round."""
    eta, nu = e7.make_pair(4.0)
    rng = random.Random(1)
    universe = sorted(eta.support())
    message = simulate_sampling_round(eta, nu, rng, universe=universe)
    assert message.cost.total_bits >= 1


def test_e7_cost_respects_bound():
    for row in full_table().rows:
        divergence, naive_bits, fast_bits, _exact_bits, bound, agreement = row
        assert naive_bits <= bound, (divergence, naive_bits)
        assert fast_bits <= bound, (divergence, fast_bits)
        assert abs(naive_bits - fast_bits) < 0.8, (naive_bits, fast_bits)

    # Cost grows with divergence (compare smallest vs largest D).
    rows = sorted(full_table().rows, key=lambda r: r[0])
    assert rows[-1][1] > rows[0][1]

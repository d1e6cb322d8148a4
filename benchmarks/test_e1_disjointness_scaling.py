"""E1 — Theorem 2 / Corollary 1: CC(DISJ_{n,k}) = Θ(n log k + k)."""

from repro.experiments import e1_disjointness_scaling as e1

from conftest import experiment_store, save_and_echo

_CACHE = {}


def full_table():
    if "table" not in _CACHE:
        _CACHE["table"] = e1.run(store=experiment_store())
    return _CACHE["table"]


def test_e1_optimal_protocol_kernel(results_dir):
    """One worst-case optimal-protocol execution (n=1024, k=8)."""
    bits = e1.measure_point(1024, 8)[0]
    assert bits > 0

    table = full_table()
    save_and_echo(table, results_dir)

    # Shape assertions: the optimal protocol's cost normalized by
    # n lg(ek) + k stays bounded, and the naive protocol's by n lg n + k.
    for row in table.rows:
        n, k, optimal, naive, trivial, opt_norm, naive_norm, ratio = row
        assert opt_norm <= 2.0, (n, k, opt_norm)
        assert naive_norm <= 1.5, (n, k, naive_norm)
        assert trivial == n * k


def test_e1_log_separation():
    """At fixed k, naive/optimal grows with n (the log n vs log k gap)."""
    rows = {(r[0], r[1]): r for r in full_table().rows}

    def ratio(n, k):
        row = rows[(n, k)]
        return row[3] / row[2]  # naive / optimal

    assert ratio(64, 4) < ratio(256, 4) < ratio(1024, 4)


def test_e1_crossover_against_trivial():
    """The optimal protocol beats broadcasting everything whenever
    lg(ek) < k — i.e. for every k >= 2 at the measured sizes."""
    for row in full_table().rows:
        n, k, optimal, _naive, trivial = row[:5]
        if k >= 8:
            assert optimal < trivial, (n, k)

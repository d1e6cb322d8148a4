"""E11 (extension) — pointwise-OR / union scaling."""

from repro.experiments import e11_pointwise_or as e11

from conftest import save_and_echo

_CACHE = {}


def full_table():
    if "table" not in _CACHE:
        _CACHE["table"] = e11.run()
    return _CACHE["table"]


def test_e11_union_kernel(results_dir):
    """One full-union execution (n=1024, k=8)."""
    bits = e11.measure_union_point(1024, 8)
    assert bits > 0

    table = full_table()
    save_and_echo(table, results_dir)


def test_e11_normalized_cost_bounded():
    for row in full_table().rows:
        n, k, bits, ratio, naive, advantage = row
        assert ratio <= 2.0, (n, k, ratio)
    # The advantage over naive n log n announcement grows as n/k grows.
    rows = {(r[0], r[1]): r[5] for r in full_table().rows}
    assert rows[(1024, 4)] > rows[(1024, 16)]

"""E15 (extension) — promise disjointness vs the general problem."""

import random

from repro.core import run_protocol
from repro.experiments import e15_promise as e15
from repro.protocols.promise import PromiseUniqueIntersectionProtocol

from conftest import save_and_echo

_CACHE = {}


def full_table():
    if "table" not in _CACHE:
        _CACHE["table"] = e15.run()
    return _CACHE["table"]


def test_e15_promise_kernel(results_dir):
    """One promise-protocol execution (n=1024, k=16)."""
    rng = random.Random(0)
    masks, _ = e15.promise_instance(1024, 16, rng, intersecting=True)
    protocol = PromiseUniqueIntersectionProtocol(1024, 16)
    run = run_protocol(protocol, masks)
    assert run.output == 0

    table = full_table()
    save_and_echo(table, results_dir)


def test_e15_promise_advantage_grows_with_k():
    rows = full_table().rows
    by_point = {}
    for n, k, case, promise_bits, general_bits, ratio, _w in rows:
        by_point.setdefault((n, k), []).append(ratio)
    # At n = 2048 the k = 32 advantage exceeds the k = 16 advantage.
    assert min(by_point[(2048, 32)]) > min(by_point[(2048, 16)]) * 0.9
    # Every promise run is cheaper than the general protocol.
    for ratios in by_point.values():
        assert all(r > 1.0 for r in ratios)

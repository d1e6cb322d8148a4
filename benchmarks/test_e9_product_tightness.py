"""E9 — Theorem 4: tightness for product distributions."""

import itertools

from repro.experiments import e9_product_tightness as e9
from repro.information import DiscreteDistribution
from repro.lowerbounds import information_additivity_report
from repro.protocols import SequentialAndProtocol

from conftest import save_and_echo

_CACHE = {}


def full_table():
    if "table" not in _CACHE:
        _CACHE["table"] = e9.run()
    return _CACHE["table"]


def test_e9_additivity_kernel(results_dir):
    """One exact m-fold information computation (k = 3, m = 2)."""
    mu = DiscreteDistribution.uniform(
        list(itertools.product((0, 1), repeat=3))
    )
    report = information_additivity_report(SequentialAndProtocol(3), mu, 2)
    assert report.additive

    table = full_table()
    save_and_echo(table, results_dir)


def test_e9_every_case_exactly_additive():
    for row in full_table().rows:
        _proto, _dist, _m, single, per_copy, additive = row
        assert additive == "yes"
        assert per_copy == single or abs(per_copy - single) < 1e-7

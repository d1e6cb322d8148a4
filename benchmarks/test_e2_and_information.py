"""E2 — Theorem 1: CIC_μ(AND_k) = Ω(log k)."""

from repro.experiments import e2_and_information as e2

from conftest import experiment_store, save_and_echo

_CACHE = {}


def full_table():
    if "table" not in _CACHE:
        _CACHE["table"] = e2.run(store=experiment_store())
    return _CACHE["table"]


def test_e2_exact_cic_kernel(results_dir):
    """One exact CIC computation (k = 8, full support)."""
    value = e2.sequential_and_cic(8)
    assert value > 0

    table = full_table()
    save_and_echo(table, results_dir)


def test_e2_logarithmic_growth():
    """CIC grows with log k: the ratio CIC / log2 k stays bounded away
    from zero across the sweep, and CIC is monotone in k."""
    table = full_table()
    cic_by_k = {row[0]: row[2] for row in table.rows}
    ratios = [row[3] for row in table.rows if row[0] >= 3]
    assert min(ratios) > 0.35           # Omega(log k) with constant ~1/2
    ks = sorted(cic_by_k)
    for a, b in zip(ks, ks[1:]):
        assert cic_by_k[b] > cic_by_k[a]


def test_e2_full_broadcast_dominates():
    """The maximally revealing protocol's CIC upper-anchors the witness:
    full broadcast >= sequential at every k."""
    for row in full_table().rows:
        _k, _logk, cic_seq, _ratio, cic_full, _trunc = row
        assert cic_full >= cic_seq - 1e-9

"""E4 — Lemma 6: the Ω(k) error cliff."""

from repro.experiments import e4_omega_k as e4
from repro.lowerbounds import TruncatedAndProtocol, lemma6_report

from conftest import experiment_store, save_and_echo

_CACHE = {}


def full_table():
    if "table" not in _CACHE:
        _CACHE["table"] = e4.run(store=experiment_store())
    return _CACHE["table"]


def test_e4_exact_error_kernel(results_dir):
    """One exact distributional-error computation (k = 256)."""
    report = lemma6_report(TruncatedAndProtocol(256, 128), eps_prime=0.2)
    assert report.bound_holds

    table = full_table()
    save_and_echo(table, results_dir)


def test_e4_cliff_shape():
    """Error decreases linearly in the budget and crosses eps = 0.1 only
    at budget/k = 1 - eps/(1 - eps') = 0.875 — the Ω(k) requirement."""
    for row in full_table().rows:
        k, budget, fraction, forced, exact, above = row
        # Exact error on the truncated family equals the forced bound.
        assert exact >= forced - 1e-9
        if fraction < 0.875 - 1e-9:
            assert above == "yes", (k, budget)
        if fraction >= 1.0:
            assert exact == 0.0

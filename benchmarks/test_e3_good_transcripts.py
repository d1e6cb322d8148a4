"""E3 — Lemma 5: good transcripts point at a zero-holder."""

from repro.experiments import e3_good_transcripts as e3
from repro.lowerbounds import analyze_good_transcripts
from repro.protocols import NoisySequentialAndProtocol

from conftest import save_and_echo

_CACHE = {}


def full_table():
    if "table" not in _CACHE:
        _CACHE["table"] = e3.run()
    return _CACHE["table"]


def test_e3_classification_kernel(results_dir):
    """One full transcript classification (k = 6)."""
    report = analyze_good_transcripts(
        NoisySequentialAndProtocol(6, 0.02), C=4.0
    )
    assert report.k == 6

    table = full_table()
    save_and_echo(table, results_dir)


def test_e3_good_mass_stays_constant():
    """π_2(L') and the pointing mass stay bounded away from 0 as k
    grows — Lemma 5's conclusion."""
    for row in full_table().rows:
        k, mass_l, mass_lp, _b0, _b1, pointing, min_sum_alpha, eq6 = row
        assert mass_l > 0.9, k
        assert mass_lp > 0.7, k
        assert pointing > 0.7, k
        # Eq. (6): sum of alphas over L is at least (sqrt(C)/2) k.
        assert min_sum_alpha >= eq6 - 1e-9, k

"""E8 — Figure 1: mechanics of the dart sampler, regenerated."""

import random

from repro.compression import run_naive_dart_protocol
from repro.experiments import e8_figure1 as e8

from conftest import save_and_echo

_CACHE = {}


def full_table():
    if "table" not in _CACHE:
        _CACHE["table"] = e8.run()
    return _CACHE["table"]


def test_e8_figure_round_kernel(results_dir):
    """One figure-configuration dart round."""
    eta, nu = e8._figure_distributions()
    rng = random.Random(0)
    result = run_naive_dart_protocol(eta, nu, rng, list(e8.FIGURE_UNIVERSE))
    assert result.agreed

    table = full_table()
    save_and_echo(table, results_dir)


def test_e8_reconstruction_and_rank_semantics():
    """The receiver's decoded value equals the speaker's selection, and
    the rank lies within the candidate set — Figure 1's caption,
    verified on the regenerated instance."""
    rows = {row[0]: row[1] for row in full_table().rows}
    assert rows["receiver correct"] == "yes"
    assert 1 <= rows["rank sent within P'"] <= rows["|P'| (candidate darts)"]
    assert rows["receiver decoded"] == rows["selected message x*"]

"""E10 — Lemma 2 and Eq. (3)–(4): the divergence accounting."""

from repro.core.analysis import conditional_transcript_joint
from repro.experiments import e10_divergence_decomposition as e10
from repro.lowerbounds import and_hard_distribution, per_player_divergence_sum
from repro.protocols import SequentialAndProtocol

from conftest import save_and_echo

_CACHE = {}


def full_table():
    if "table" not in _CACHE:
        _CACHE["table"] = e10.run()
    return _CACHE["table"]


def test_e10_decomposition_kernel(results_dir):
    """One per-player divergence-sum computation (k = 5)."""
    k = 5
    mu = and_hard_distribution(k)
    joint = conditional_transcript_joint(SequentialAndProtocol(k), mu)
    value = per_player_divergence_sum(joint, k)
    assert value > 0

    table = full_table()
    save_and_echo(table, results_dir)


def test_e10_inequalities_hold_at_every_k():
    for row in full_table().rows:
        (k, cmi_seq, dec_seq, holds_seq,
         cmi_noisy, dec_noisy, holds_noisy, exact, bound) = row
        assert holds_seq == "yes" and holds_noisy == "yes"
        assert dec_seq <= cmi_seq + 1e-9
        assert dec_noisy <= cmi_noisy + 1e-9
        assert exact >= bound - 1e-9

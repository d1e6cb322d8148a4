"""Tests for the Lemma 6 Ω(k) argument."""

import pytest

from repro.core import and_task, run_protocol, worst_case_error
from repro.lowerbounds import (
    TruncatedAndProtocol,
    lemma6_report,
    speakers_on_all_ones,
)
from repro.protocols import FullBroadcastAndProtocol, SequentialAndProtocol


class TestSpeakers:
    def test_sequential_and_everyone_speaks_on_all_ones(self):
        k = 6
        assert speakers_on_all_ones(SequentialAndProtocol(k)) == list(range(k))

    def test_truncated_protocol_prefix_speaks(self):
        p = TruncatedAndProtocol(8, 3)
        assert speakers_on_all_ones(p) == [0, 1, 2]


def colliding_players(protocol):
    """The players outside the all-ones speaker set, after checking that
    zeroing any one of them leaves the all-ones transcript unchanged (the
    collision event of Lemma 6)."""
    k = protocol.num_players
    reference = run_protocol(protocol, (1,) * k).transcript
    speakers = set(speakers_on_all_ones(protocol))
    invisible = [z for z in range(k) if z not in speakers]
    for z in invisible:
        bits = [1] * k
        bits[z] = 0
        assert run_protocol(protocol, tuple(bits)).transcript == reference
    return invisible


class TestTranscriptCollision:
    def test_invisible_players_collide(self):
        """For the budget-3 protocol on k = 8, players 3..7 are invisible:
        zeroing any of them leaves the all-ones transcript unchanged."""
        p = TruncatedAndProtocol(8, 3)
        invisible = colliding_players(p)
        assert invisible == [3, 4, 5, 6, 7]

    def test_full_protocol_no_invisible_players(self):
        p = SequentialAndProtocol(5)
        assert colliding_players(p) == []


class TestLemma6Report:
    @pytest.mark.parametrize("k,budget", [(8, 0), (8, 2), (8, 5), (8, 8),
                                          (16, 4), (16, 12)])
    def test_exact_error_meets_forced_bound(self, k, budget):
        report = lemma6_report(
            TruncatedAndProtocol(k, budget), eps_prime=0.2
        )
        assert report.bound_holds
        assert report.num_speakers_on_all_ones == budget

    def test_collision_probability_formula(self):
        k, budget, eps_prime = 10, 4, 0.25
        report = lemma6_report(
            TruncatedAndProtocol(k, budget), eps_prime=eps_prime
        )
        assert report.collision_probability == pytest.approx(
            (1 - eps_prime) * (1 - budget / k)
        )
        # The truncated protocol answers 1 on all-ones, so the bound is
        # the collision probability, and the exact error equals it: the
        # protocol errs precisely when an invisible player holds the zero.
        assert report.exact_error == pytest.approx(
            report.collision_probability
        )

    def test_zero_budget_errs_on_every_zero(self):
        k, eps_prime = 6, 0.2
        report = lemma6_report(TruncatedAndProtocol(k, 0), eps_prime=eps_prime)
        assert report.exact_error == pytest.approx(1 - eps_prime)

    def test_full_budget_zero_error(self):
        report = lemma6_report(TruncatedAndProtocol(7, 7), eps_prime=0.2)
        assert report.exact_error == 0.0
        assert report.error_lower_bound == 0.0

    def test_full_broadcast_protocol(self):
        """Everyone speaks, so the bound degenerates and error is zero."""
        report = lemma6_report(FullBroadcastAndProtocol(5), eps_prime=0.2)
        assert report.exact_error == 0.0
        assert report.num_speakers_on_all_ones == 5

    def test_error_cliff_shape(self):
        """Sweeping the budget traces the Ω(k) cliff: error stays above
        any fixed ε until the budget is (1 - ε/(1-ε'))k."""
        k, eps_prime, eps = 32, 0.2, 0.1
        threshold = (1 - eps / (1 - eps_prime)) * k
        for budget in range(0, k + 1, 4):
            report = lemma6_report(
                TruncatedAndProtocol(k, budget), eps_prime=eps_prime
            )
            if budget < threshold:
                assert report.exact_error > eps
            if budget == k:
                assert report.exact_error == 0.0


class TestTruncatedProtocol:
    def test_budget_k_is_exact(self):
        k = 5
        assert worst_case_error(TruncatedAndProtocol(k, k), and_task(k)) == 0.0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            TruncatedAndProtocol(4, 5)
        with pytest.raises(ValueError):
            TruncatedAndProtocol(4, -1)

    def test_early_halt_on_zero(self):
        from repro.core import run_protocol

        p = TruncatedAndProtocol(6, 4)
        run = run_protocol(p, (1, 0, 1, 1, 1, 1))
        assert run.output == 0
        assert run.rounds == 2

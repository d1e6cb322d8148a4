"""CellScheduler policy contract: sharding, stealing, leases, budgets.

Each test pins one clause of the policy contract documented in
``repro.fabric.scheduler``, counters included; this module is the
contract, and no fuzz oracle repeats it.
"""

import pytest

from repro.fabric.scheduler import DEFAULT_MAX_ATTEMPTS, CellScheduler
from repro.net.errors import RetriesExhaustedError


class TestSharding:
    def test_home_queues_by_modulo_in_increasing_order(self):
        s = CellScheduler(7, 3)
        assert [s.next_cell(0, 0.0) for _ in range(3)] == [
            (0, False), (3, False), (6, False),
        ]
        assert [s.next_cell(1, 0.0) for _ in range(2)] == [
            (1, False), (4, False),
        ]
        assert [s.next_cell(2, 0.0) for _ in range(2)] == [
            (2, False), (5, False),
        ]

    def test_rejects_unknown_worker_and_bad_config(self):
        s = CellScheduler(4, 2)
        with pytest.raises(ValueError):
            s.next_cell(2, 0.0)
        with pytest.raises(ValueError):
            CellScheduler(4, 0)
        with pytest.raises(ValueError):
            CellScheduler(4, 2, max_attempts=0)


class TestStealing:
    def test_steals_from_back_of_longest_queue(self):
        # Worker 0 owns {0, 2, 4, 6}, worker 1 owns {1, 3, 5}.
        s = CellScheduler(7, 2)
        for _ in range(3):
            s.next_cell(1, 0.0)
        # Worker 1's queue is empty: it steals worker 0's *back* cell.
        assert s.next_cell(1, 0.0) == (6, True)
        assert s.steals == 1
        # Worker 0 still drains its own queue front-first.
        assert s.next_cell(0, 0.0) == (0, False)

    def test_tie_breaks_to_smallest_worker_index(self):
        # Workers 0/1/2 each own one cell; drain worker 2's queue, then
        # its next ask must steal from worker 0 (smallest of the tied).
        s = CellScheduler(3, 3)
        s.next_cell(2, 0.0)
        assert s.next_cell(2, 0.0) == (0, True)

    def test_nothing_queued_returns_none(self):
        s = CellScheduler(2, 2)
        s.next_cell(0, 0.0)
        s.next_cell(1, 0.0)
        # Both cells are leased (in flight), none queued: no grant.
        assert s.next_cell(0, 0.0) is None
        assert s.outstanding == 2


class TestLeases:
    def test_leased_cell_never_redispatched(self):
        s = CellScheduler(1, 2)
        assert s.next_cell(0, 0.0) == (0, False)
        assert s.next_cell(1, 0.0) is None

    def test_completed_cell_never_redispatched(self):
        s = CellScheduler(1, 1, lease_timeout=1.0)
        s.next_cell(0, 0.0)
        s.complete(0, 0)
        s.expire(100.0)
        assert s.next_cell(0, 100.0) is None
        assert s.done

    def test_expiry_requeues_at_front_in_cell_order(self):
        s = CellScheduler(4, 2, lease_timeout=5.0)
        s.next_cell(0, 0.0)  # cell 0 leased until 5.0
        assert s.expire(4.9) == []
        assert s.expire(5.0) == [0]
        assert s.expirations == 1
        assert s.requeues == 1
        # Re-queued at the *front*: dispatched before cell 2.
        assert s.next_cell(0, 6.0) == (0, False)
        assert s.next_cell(0, 6.0) == (2, False)

    def test_expire_processes_in_increasing_cell_order(self):
        s = CellScheduler(4, 2, lease_timeout=1.0)
        s.next_cell(1, 0.0)  # cell 1
        s.next_cell(0, 0.0)  # cell 0
        assert s.expire(10.0) == [0, 1]

    def test_drop_worker_requeues_its_leases(self):
        s = CellScheduler(4, 2)
        s.next_cell(0, 0.0)
        s.next_cell(0, 0.0)
        assert s.leased_to(0) == [0, 2]
        assert s.drop_worker(0) == [0, 2]
        assert s.leased_to(0) == []
        assert s.requeues == 2
        # Cells re-queue front-first in increasing order, so the highest
        # re-queued cell surfaces first.
        assert s.next_cell(0, 1.0) == (2, False)
        assert s.next_cell(0, 1.0) == (0, False)


class TestRetryBudget:
    def test_exhaustion_raises_typed_error(self):
        s = CellScheduler(1, 1, lease_timeout=1.0, max_attempts=2)
        s.next_cell(0, 0.0)
        s.expire(10.0)  # attempt 1 burned, re-queued
        s.next_cell(0, 10.0)  # attempt 2
        with pytest.raises(RetriesExhaustedError):
            s.expire(20.0)

    def test_fail_charges_the_budget_too(self):
        s = CellScheduler(1, 1, max_attempts=2)
        s.next_cell(0, 0.0)
        s.fail(0, 0)
        s.next_cell(0, 1.0)
        with pytest.raises(RetriesExhaustedError):
            s.fail(0, 0)

    def test_default_budget(self):
        assert DEFAULT_MAX_ATTEMPTS == 5
        assert CellScheduler(1, 1).max_attempts == 5


class TestCompletion:
    def test_first_result_wins_duplicate_ignored(self):
        s = CellScheduler(1, 2, lease_timeout=1.0)
        s.next_cell(0, 0.0)
        s.expire(5.0)
        s.next_cell(1, 5.0)  # re-dispatched to worker 1
        # The original (expired) worker's late result still wins.
        assert s.complete(0, 0) is True
        assert s.complete(1, 0) is False
        assert s.completed_cells == [0]
        assert s.done

    def test_complete_removes_requeued_copy(self):
        s = CellScheduler(2, 1, lease_timeout=1.0)
        s.next_cell(0, 0.0)  # cell 0
        s.expire(5.0)  # cell 0 re-queued at front
        assert s.complete(0, 0) is True
        # The re-queued copy must be gone: next dispatch is cell 1.
        assert s.next_cell(0, 6.0) == (1, False)

    def test_stolen_completion_counts_like_home_completion(self):
        s = CellScheduler(2, 2)
        s.next_cell(1, 0.0)  # home cell 1
        s.next_cell(1, 0.0)  # steals cell 0
        assert s.complete(1, 0) is True
        assert s.complete(1, 1) is True
        assert s.done
        assert s.dispatch_log == [(1, 1, False), (1, 0, True)]


def test_full_sweep_every_cell_dispatched_exactly_once_when_clean():
    s = CellScheduler(10, 3)
    granted = []
    while not s.done:
        progressed = False
        for w in range(3):
            grant = s.next_cell(w, 0.0)
            if grant is not None:
                granted.append(grant[0])
                s.complete(w, grant[0])
                progressed = True
        assert progressed, "scheduler wedged with work outstanding"
    assert sorted(granted) == list(range(10))
    assert len(s.dispatch_log) == 10
    assert s.requeues == 0

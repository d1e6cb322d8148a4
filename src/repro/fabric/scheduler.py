"""The coordinator's cell scheduler: sharded queues, work stealing,
leases, retry budgets.

:class:`CellScheduler` is a *pure* deterministic state machine — no
clocks, no sockets, no randomness.  The transports drive it with
events (a worker asks for work, a result arrives, time advances) and
it answers with dispatch decisions.  Because it is pure, the loopback
transport is bit-reproducible, and ``tests/fabric/test_scheduler.py``
pins each clause of the policy contract, counters included, with a
short scripted event sequence:

* **Sharding.**  Cell ``i`` of ``num_cells`` belongs to the *home
  queue* of worker ``i % num_workers``; each home queue holds its cells
  in increasing index order.
* **Dispatch.**  A worker asking for work receives the *front* of its
  own home queue.  If its queue is empty it **steals**: the victim is
  the worker with the longest queue (ties broken by smallest worker
  index), and the stolen cell is taken from the *back* of the victim's
  queue.  If every queue is empty the worker gets nothing (cells may
  still be in flight elsewhere).
* **Leases.**  A dispatched cell is *leased* to its worker until
  ``now + lease_timeout``; a leased or completed cell is never
  dispatched again.
* **Expiry / failure.**  An expired or failed lease re-queues its cell
  at the *front* of the cell's home queue — expired cells in one
  sweep are processed in increasing cell order.  Each re-queue charges
  the cell's dispatch budget; when a cell's dispatch count has reached
  ``max_attempts`` the scheduler raises
  :class:`~repro.net.errors.RetriesExhaustedError` instead of
  re-queuing — typed failure, never a silent livelock.
* **Completion.**  The first result for a cell wins, whoever computed
  it — a late result from an expired lease still counts, and a
  duplicate is ignored.  A stolen cell's completion is recorded exactly
  like a home-queue completion.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..net.errors import RetriesExhaustedError

__all__ = ["CellScheduler", "DEFAULT_MAX_ATTEMPTS"]

#: Times a cell may be dispatched before the sweep fails typed.
DEFAULT_MAX_ATTEMPTS = 5


class CellScheduler:
    """Deterministic sharded work-stealing scheduler over
    ``num_cells`` abstract cells and ``num_workers`` workers."""

    def __init__(
        self,
        num_cells: int,
        num_workers: int,
        *,
        lease_timeout: float = 8.0,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        if num_workers < 1:
            raise ValueError("fabric needs at least one worker")
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        self.num_cells = num_cells
        self.num_workers = num_workers
        self.lease_timeout = lease_timeout
        self.max_attempts = max_attempts
        self._queues: List[Deque[int]] = [
            deque(
                cell
                for cell in range(num_cells)
                if cell % num_workers == worker
            )
            for worker in range(num_workers)
        ]
        #: cell -> (worker, deadline, stolen)
        self._leases: Dict[int, Tuple[int, float, bool]] = {}
        self._attempts: Dict[int, int] = {}
        self._completed: Dict[int, bool] = {}
        #: Every dispatch, in order: (worker, cell, stolen).
        self.dispatch_log: List[Tuple[int, int, bool]] = []
        self.steals = 0
        self.expirations = 0
        self.requeues = 0

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return len(self._completed) == self.num_cells

    @property
    def completed_cells(self) -> List[int]:
        return sorted(self._completed)

    @property
    def outstanding(self) -> int:
        """Cells dispatched and not yet completed."""
        return len(self._leases)

    @property
    def queued(self) -> int:
        return sum(len(queue) for queue in self._queues)

    def leased_to(self, worker: int) -> List[int]:
        """Cells currently leased to ``worker``, in increasing order."""
        return sorted(
            cell
            for cell, (owner, _, _) in self._leases.items()
            if owner == worker
        )

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def next_cell(self, worker: int, now: float) -> Optional[Tuple[int, bool]]:
        """Grant ``worker`` its next cell, or ``None`` when no cell is
        queued anywhere.  Returns ``(cell, stolen)``."""
        if not 0 <= worker < self.num_workers:
            raise ValueError(f"unknown worker {worker}")
        stolen = False
        queue = self._queues[worker]
        if queue:
            cell = queue.popleft()
        else:
            victim = self._steal_victim()
            if victim is None:
                return None
            cell = self._queues[victim].pop()
            stolen = True
            self.steals += 1
        assert cell not in self._leases, "dispatched a leased cell"
        assert cell not in self._completed, "dispatched a completed cell"
        self._attempts[cell] = self._attempts.get(cell, 0) + 1
        self._leases[cell] = (worker, now + self.lease_timeout, stolen)
        self.dispatch_log.append((worker, cell, stolen))
        return cell, stolen

    def _steal_victim(self) -> Optional[int]:
        best: Optional[int] = None
        best_len = 0
        for candidate in range(self.num_workers):
            length = len(self._queues[candidate])
            if length > best_len:
                best, best_len = candidate, length
        return best

    # ------------------------------------------------------------------
    # Results and failures.
    # ------------------------------------------------------------------
    def complete(self, worker: int, cell: int) -> bool:
        """Record a result for ``cell``; returns ``False`` for a
        duplicate (already completed).  First result wins regardless of
        which worker holds the current lease."""
        if cell in self._completed:
            return False
        self._leases.pop(cell, None)
        # A re-queued copy of a late-completing cell must not be
        # dispatched again.
        home = cell % self.num_workers
        try:
            self._queues[home].remove(cell)
        except ValueError:
            pass
        self._completed[cell] = True
        return True

    def fail(self, worker: int, cell: int) -> None:
        """A dispatch failed observably (worker error): re-queue now."""
        lease = self._leases.pop(cell, None)
        if lease is None or cell in self._completed:
            return
        self._requeue(cell)

    def expire(self, now: float) -> List[int]:
        """Re-queue every lease whose deadline has passed; returns the
        re-queued cells (increasing order)."""
        expired = sorted(
            cell
            for cell, (_, deadline, _) in self._leases.items()
            if deadline <= now
        )
        for cell in expired:
            del self._leases[cell]
            self.expirations += 1
            self._requeue(cell)
        return expired

    def drop_worker(self, worker: int) -> List[int]:
        """A worker died (connection lost): re-queue all its leased
        cells immediately, in increasing order."""
        lost = sorted(
            cell
            for cell, (owner, _, _) in self._leases.items()
            if owner == worker
        )
        for cell in lost:
            del self._leases[cell]
            self._requeue(cell)
        return lost

    def _requeue(self, cell: int) -> None:
        if self._attempts.get(cell, 0) >= self.max_attempts:
            raise RetriesExhaustedError(
                f"fabric cell {cell} failed {self._attempts[cell]} "
                f"dispatches (budget {self.max_attempts}) — giving up"
            )
        self.requeues += 1
        self._queues[cell % self.num_workers].appendleft(cell)

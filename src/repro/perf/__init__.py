"""Performance layer: parallel experiment sweeps.

The experiment suite re-runs exact analyses over ``(n, k)`` grids whose
points are independent of one another, which makes them embarrassingly
parallel.  :func:`map_grid` is the one executor every sweep goes
through:

* **deterministic results** — grid points are evaluated by pure,
  picklable functions and results are returned in grid order regardless
  of completion order, so a parallel sweep renders byte-identical tables
  to the serial one;
* **deterministic randomness** — per-task seeds are derived from the
  sweep's base seed and the task index with :func:`derive_seed` (a
  stable hash, identical across processes and platforms), never from a
  shared RNG whose consumption order would depend on scheduling;
* **observability** — worker processes run with their own metrics
  registry and ship a :class:`~repro.obs.metrics.MetricsSnapshot` back
  with each result; the parent merges the snapshots (in task order) into
  :data:`repro.obs.REGISTRY`, so ``--metrics`` ledgers are complete even
  for parallel runs.

See ``docs/performance.md`` for usage and the ``--workers`` CLI flag.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "grid": ("derive_seed", "map_grid", "resolve_workers"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = ["map_grid", "derive_seed", "resolve_workers"]

"""Checkpointed, resumable experiment sweeps over the result store.

:func:`checkpointed_map_grid` is a drop-in wrapper around
:func:`repro.perf.map_grid` that makes a grid sweep *resumable* and a
re-run *pure cache hits*:

* before computing anything it probes the store for every cell's
  :class:`~repro.store.keys.ResultKey` and serves the hits;
* only the missing cells are dispatched to ``map_grid`` — with their
  *original* grid indices' derived seeds, so which cells happen to be
  cached can never change any computed value;
* each missing cell's result is ``put`` the moment it resolves (the
  ``on_result`` checkpoint hook), atomically — the store itself *is* the
  checkpoint, there is no separate manifest to tear.  A sweep killed
  mid-grid (even SIGKILL) resumes from the last finished cell.

Results are stored as canonical JSON (:func:`repro.store.keys.
canonical_json`), which round-trips Python ints, floats (``repr``
shortest-form, bit-exact), bools, strings, and nested tuples/lists
exactly; tuples come back as tuples.  That is what makes a cached cell
**byte-identical** to a fresh computation — the whole contract of the
store — and it is pinned by ``tests/store/test_warm_identity.py`` and
``tests/store/test_hit_verdicts.py``.

A corrupt entry (detected by the store's CRC seal) is treated as a miss
(:func:`probe_store`): the damaged file is deleted and the cell
recomputed, so bit rot degrades a warm run to a partially-cold one
instead of failing it.

:class:`SweepGrid` is how an experiment declares a store-backed grid
once — cell function, parameter map, default and quick grids, base
seed.  The experiment's ``run()`` evaluates it with :meth:`SweepGrid.map`
and the fabric (:mod:`repro.fabric.cells`) rebuilds the same addresses
with :meth:`SweepGrid.keys`, so a fabric warm-up fills exactly the
cells the table reads.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.telemetry import get_telemetry
from ..obs.trace import get_tracer
from ..perf.grid import derive_seed, map_grid
from .keys import ResultKey, canonical_json, code_version
from .store import ResultStore, StoreCorruptedError

__all__ = [
    "SweepGrid",
    "checkpointed_map_grid",
    "decode_result",
    "encode_result",
    "probe_store",
]


def encode_result(result: Any) -> bytes:
    """Serialize one cell result to its canonical payload bytes."""
    return canonical_json(result).encode("ascii")


def _tupled(value: Any) -> Any:
    """JSON arrays back to tuples, recursively (grid cells return
    tuples; the round-trip must hand back exactly what ``fn`` did)."""
    if isinstance(value, list):
        return tuple(_tupled(item) for item in value)
    if isinstance(value, dict):
        return {key: _tupled(item) for key, item in value.items()}
    return value


def decode_result(payload: bytes) -> Any:
    """Inverse of :func:`encode_result` (tuples restored)."""
    return _tupled(json.loads(payload.decode("ascii")))


def probe_store(store: ResultStore, key: ResultKey) -> Optional[bytes]:
    """The stored payload for ``key``, or ``None`` on a miss.  A corrupt
    entry is deleted and reported as a miss: bit rot degrades to a
    recompute, never to a wrong serve."""
    try:
        return store.get(key)
    except StoreCorruptedError:
        store.delete(key)
        return None


def _grid_keys(
    experiment: str,
    version: str,
    params: Sequence[Any],
    base_seed: Optional[int] = None,
) -> List[ResultKey]:
    """The cell address of every grid point, in grid order: cell ``i``
    carries ``derive_seed(base_seed, i)`` (or no seed when ``base_seed``
    is ``None``), so the address never depends on which cells are
    cached."""
    return [
        ResultKey(
            experiment=experiment,
            params=cell_params,
            seed=(
                derive_seed(base_seed, index)
                if base_seed is not None
                else None
            ),
            version=version,
        )
        for index, cell_params in enumerate(params)
    ]


def _call_cell(task: Tuple[Any, Optional[int]], fn: Callable[..., Any]) -> Any:
    """Module-level (picklable) shim: run one cell with its pre-derived
    seed, so a partial grid still sees full-grid seeds."""
    item, seed = task
    return fn(item) if seed is None else fn(item, seed)


def checkpointed_map_grid(
    fn: Callable[..., Any],
    items: Sequence[Any],
    *,
    store: Optional[ResultStore],
    experiment: str,
    version: str,
    params_of: Optional[Callable[[Any], Any]] = None,
    workers: Optional[int] = None,
    base_seed: Optional[int] = None,
) -> List[Any]:
    """Evaluate ``fn`` over ``items`` through the result store.

    Parameters mirror :func:`repro.perf.map_grid`; the sweep-specific
    ones:

    store:
        The :class:`ResultStore` to serve from and checkpoint into.
        ``None`` degrades to a plain ``map_grid`` call (identical
        behavior, zero overhead) so callers need no branching.
    experiment / version:
        The kernel id and its code-version tag
        (:func:`repro.store.keys.code_version`); both are part of every
        cell's address, so a version bump makes every stale entry
        unreachable.
    params_of:
        Maps an item to the cell's canonical parameters (default: the
        item itself).  Must cover *every* input that influences the
        computed value — closure kwargs included — or distinct cells
        would share an address.

    Returns the results in grid order, exactly as ``map_grid`` would.
    """
    if store is None:
        return map_grid(
            fn, items, workers=workers, base_seed=base_seed
        )
    items = list(items)
    keys = _grid_keys(
        experiment,
        version,
        items if params_of is None else [params_of(item) for item in items],
        base_seed,
    )

    results: List[Any] = [None] * len(items)
    missing: List[int] = []
    for index, key in enumerate(keys):
        payload = probe_store(store, key)
        if payload is None:
            missing.append(index)
        else:
            results[index] = decode_result(payload)

    tracer = get_tracer()
    telemetry = get_telemetry()
    if telemetry is not None:
        # The sweep owner: the inner map_grid joins this sweep (depth
        # counter) instead of starting one of its own, so the dashboard
        # shows grid totals and cache hits, not just the missing cells.
        telemetry.start_sweep(
            experiment, len(items), hits=len(items) - len(missing)
        )
    try:
        with tracer.span(
            "checkpointed_sweep",
            experiment=experiment,
            cells=len(items),
            hits=len(items) - len(missing),
            misses=len(missing),
        ):
            if missing:

                def checkpoint(position: int, result: Any) -> None:
                    index = missing[position]
                    store.put(keys[index], encode_result(result))
                    results[index] = result

                map_grid(
                    functools.partial(_call_cell, fn=fn),
                    [(items[index], keys[index].seed) for index in missing],
                    workers=workers,
                    base_seed=None,  # seeds pre-derived from the full grid
                    on_result=checkpoint,
                )
    finally:
        if telemetry is not None:
            telemetry.finish_sweep()
    return results


@dataclass(frozen=True)
class SweepGrid:
    """One store-backed experiment grid, declared once in its module.

    experiment:
        The kernel id; with its :func:`~repro.store.keys.code_version`
        tag it is part of every cell's address.
    cell:
        The pure ``(params, seed) -> value`` cell function.  Its keyword
        defaults are the canonical ones a fabric worker computes with;
        ``run()`` may pass other keywords (``kernel``, ``transport``,
        ...) only where they cannot change the value.
    default / quick:
        The grid items of the default and the ``--quick`` sweep.
    params_of:
        Maps a grid item to the cell's canonical parameters (default:
        the item itself, which must then be a params dict).
    base_seed:
        The sweep-level seed the cell seeds derive from; ``None`` for
        unseeded cells, which are then called as ``cell(params)``.
    """

    experiment: str
    cell: Callable[..., Any]
    default: Sequence[Any]
    quick: Sequence[Any]
    params_of: Optional[Callable[[Any], Dict[str, Any]]] = None
    base_seed: Optional[int] = None

    def _params(self, items: Sequence[Any]) -> List[Dict[str, Any]]:
        if self.params_of is None:
            return list(items)
        return [self.params_of(item) for item in items]

    def keys(
        self, items: Optional[Sequence[Any]] = None, *, quick: bool = False
    ) -> List[ResultKey]:
        """The cell addresses of ``items`` (default: the default or,
        with ``quick``, the quick grid) — exactly the keys :meth:`map`
        reads and writes for them."""
        if items is None:
            items = self.quick if quick else self.default
        return _grid_keys(
            self.experiment,
            code_version(self.experiment),
            self._params(items),
            self.base_seed,
        )

    def map(
        self,
        items: Sequence[Any],
        *,
        store: Optional[ResultStore],
        workers: Optional[int] = None,
        **cell_kwargs: Any,
    ) -> List[Any]:
        """Evaluate the cell over ``items`` through
        :func:`checkpointed_map_grid`; ``cell_kwargs`` are bound to
        the cell and take no part in the addresses."""
        return checkpointed_map_grid(
            functools.partial(self.cell, **cell_kwargs),
            self._params(items),
            store=store,
            experiment=self.experiment,
            version=code_version(self.experiment),
            workers=workers,
            base_seed=self.base_seed,
        )

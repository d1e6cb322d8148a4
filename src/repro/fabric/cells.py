"""The fabric cell registry: from a :class:`ResultKey` to a value.

A fabric worker (possibly on another machine) receives nothing but a
``ResultKey`` — ``(experiment, params, seed, version)`` — so every
store-backed experiment declares its grids once, as
:class:`~repro.store.sweep.SweepGrid` objects in its own module, each
with a *pure* ``(params, seed) -> value`` cell.  This module only
registers those declarations: workers compute with the declared cell
and its canonical keyword defaults, and :func:`sweep_keys` rebuilds
the declared grids' addresses, so a fabric sweep warms exactly the
cells the experiment's own ``run()`` reads — byte-identical to a local
sweep.

:func:`compute_cell` refuses keys whose ``version`` disagrees with this
process's registered :func:`~repro.store.keys.code_version` — a worker
running different code must fail typed rather than poison the store
with mislabelled results.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ..experiments import (
    e1_disjointness_scaling as e1,
    e2_and_information as e2,
    e4_omega_k as e4,
    e14_optimal_information as e14,
    e16_cross_model as e16,
)
from ..store.keys import ResultKey, code_version
from ..store.sweep import SweepGrid, encode_result
from .errors import FabricProtocolError

__all__ = [
    "CELL_KERNELS",
    "SWEEPS",
    "compute_cell",
    "compute_cell_payload",
    "sweep_keys",
    "SWEEPABLE_EXPERIMENTS",
]

#: experiment id -> its store-backed grids, in sweep order.
SWEEPS: Dict[str, Tuple[SweepGrid, ...]] = {
    "E1": (e1.SWEEP,),
    "E2": (e2.SWEEP,),
    "E4": (e4.SWEEP,),
    "E14": (e14.SWEEP, e14.EXTERNAL_SWEEP),
    "E16": (e16.SWEEP, e16.INFO_SWEEP),
}

SWEEPABLE_EXPERIMENTS = tuple(SWEEPS)

_GRIDS: Dict[str, SweepGrid] = {
    grid.experiment: grid for grids in SWEEPS.values() for grid in grids
}

#: kernel id -> pure ``(params, seed) -> result`` cell function.
CELL_KERNELS: Dict[str, Callable[..., Any]] = {
    kernel: grid.cell for kernel, grid in _GRIDS.items()
}


def compute_cell(key: ResultKey) -> Any:
    """Recompute the value a key addresses, verifying the key's code
    version against this process's registry first."""
    grid = _GRIDS.get(key.experiment)
    if grid is None:
        raise FabricProtocolError(
            f"no fabric cell kernel registered for experiment "
            f"{key.experiment!r} (known: {sorted(CELL_KERNELS)})"
        )
    local_version = code_version(key.experiment)
    if key.version != local_version:
        raise FabricProtocolError(
            f"{key.experiment} key carries code version "
            f"{key.version!r} but this worker runs {local_version!r} — "
            f"refusing to compute under a mismatched address"
        )
    if grid.base_seed is not None and key.seed is None:
        raise FabricProtocolError(
            f"{key.experiment} cells are seeded; key carries none"
        )
    return grid.cell(dict(key.params), key.seed)


def compute_cell_payload(key: ResultKey) -> bytes:
    """The canonical store payload for ``key`` (compute + encode)."""
    return encode_result(compute_cell(key))


def sweep_keys(experiment: str, *, quick: bool = False) -> List[ResultKey]:
    """Every cell key of ``experiment``'s default (or ``quick``) grids
    — the addresses its ``run()`` reads with the matching defaults."""
    grids = SWEEPS.get(experiment)
    if grids is None:
        raise ValueError(
            f"experiment {experiment!r} has no fabric sweep grid "
            f"(sweepable: {SWEEPABLE_EXPERIMENTS})"
        )
    return [key for grid in grids for key in grid.keys(quick=quick)]

"""The fabric sweep entry point: warm the store over a worker pool.

:func:`fabric_sweep` takes bare :class:`ResultKey` lists — typically
:func:`repro.fabric.cells.sweep_keys`, the addresses an experiment's
declared grids read — probes the store first, and shards the missing
cells across a coordinator/worker pool instead of a local process
pool.  Workers compute with the same pure cell functions
(:mod:`repro.fabric.cells`), so the store entries are
**byte-identical** to the serial path whichever transport computed
them, and a sweep killed at any point (coordinator or worker, even
SIGKILL) resumes from the store checkpoint.  ``python -m repro.fabric
sweep E --store DIR`` warms the store this way; ``python -m
repro.experiments E --store DIR`` then renders the table from it, and
every cell it reads is a hit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..net.faults import FaultPlan
from ..obs.telemetry import get_telemetry
from ..obs.trace import get_tracer
from ..store.keys import ResultKey
from ..store.store import ResultStore
from ..store.sweep import probe_store
from .loopback import run_loopback_sweep
from .scheduler import DEFAULT_MAX_ATTEMPTS
from .tcp import run_tcp_sweep

__all__ = [
    "FABRIC_TRANSPORTS",
    "fabric_sweep",
    "fabric_checkpointed_map_grid",
]

FABRIC_TRANSPORTS = ("loopback", "tcp")


def fabric_sweep(
    keys: Sequence[ResultKey],
    *,
    store: ResultStore,
    workers: int,
    transport: str = "tcp",
    faults: Optional[FaultPlan] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    timeout: float = 600.0,
) -> Dict[str, int]:
    """Warm ``store`` for every key: probe first, shard the misses
    across the pool.  Returns ``{"cells": n, "hits": h, "computed": c}``.

    A ``store`` is mandatory: it is the transfer substrate and the
    crash checkpoint.
    """
    if store is None:
        raise ValueError(
            "fabric sweeps require a result store (--store DIR): the "
            "store is the transfer substrate and the crash checkpoint"
        )
    if transport not in FABRIC_TRANSPORTS:
        raise ValueError(
            f"unknown fabric transport {transport!r}; expected one of "
            f"{FABRIC_TRANSPORTS}"
        )
    if faults is not None and transport != "loopback":
        raise ValueError(
            "fault injection is loopback-only: pass transport='loopback' "
            "with a fault plan (TCP delivers reliably)"
        )
    keys = list(keys)
    missing: List[ResultKey] = [
        key for key in keys if probe_store(store, key) is None
    ]
    tracer = get_tracer()
    telemetry = get_telemetry()
    experiment = keys[0].experiment if keys else "?"
    if telemetry is not None:
        telemetry.start_sweep(
            f"fabric:{experiment}", len(keys), hits=len(keys) - len(missing)
        )
    try:
        with tracer.span(
            "fabric_sweep",
            transport=transport,
            cells=len(keys),
            hits=len(keys) - len(missing),
            misses=len(missing),
            workers=workers,
        ):
            if missing:
                if transport == "loopback":
                    run_loopback_sweep(
                        missing,
                        store=store,
                        workers=workers,
                        faults=faults,
                        max_attempts=max_attempts,
                    )
                else:
                    run_tcp_sweep(
                        missing,
                        store=store,
                        workers=workers,
                        max_attempts=max_attempts,
                        timeout=timeout,
                    )
    finally:
        if telemetry is not None:
            telemetry.finish_sweep()
    return {
        "cells": len(keys),
        "hits": len(keys) - len(missing),
        "computed": len(missing),
    }


# No callers: kept importable only because the traced benchmark run
# (perfbench/layers.py) wraps this name.
fabric_checkpointed_map_grid = fabric_sweep

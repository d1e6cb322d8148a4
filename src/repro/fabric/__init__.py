"""``repro.fabric`` — the sharded sweep coordinator and result-serving
API over the content-addressed store.

The fabric unifies three existing layers into one service shape:

* :mod:`repro.store` supplies the cell addresses
  (:class:`~repro.store.keys.ResultKey`) and the durable, CRC-sealed
  checkpoint every result is written through to;
* the grid declarations of :mod:`repro.store.sweep` (one
  :class:`~repro.store.sweep.SweepGrid` per store-backed experiment
  grid) supply the pure cell functions and the full-grid seed
  derivation, so fabric-warmed tables are byte-identical to serial
  ``checkpointed_map_grid`` runs;
* :mod:`repro.net` supplies the wire discipline — the one sealed
  envelope (:mod:`repro.net.envelope`) under the fabric dialect
  (:mod:`repro.fabric.wire`), seeded fault
  plans on a deterministic loopback transport, typed errors, never a
  hang.

Layers, bottom up: :mod:`~repro.fabric.wire` (frames),
:mod:`~repro.fabric.scheduler` (sharded work-stealing lease scheduler),
:mod:`~repro.fabric.core` (sans-io coordinator/worker endpoints),
:mod:`~repro.fabric.loopback` / :mod:`~repro.fabric.tcp` (the two
transports), :mod:`~repro.fabric.sweep` (the store warm-up entry
point), :mod:`~repro.fabric.service` (the serving API), and
``python -m repro.fabric`` (``sweep`` / ``serve`` / ``get`` /
``loadtest`` / ``worker``).  See ``docs/fabric.md``.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "cells": ("CELL_KERNELS", "compute_cell", "sweep_keys"),
    "core": ("CoordinatorCore", "WorkerCore"),
    "errors": (
        "FabricError",
        "FabricProtocolError",
        "NetTimeoutError",
        "RetriesExhaustedError",
        "ServeError",
        "WorkerLostError",
    ),
    "loopback": ("run_loopback_sweep",),
    "scheduler": ("CellScheduler",),
    "service": ("FabricClient", "FabricServer", "ServerThread", "load_test"),
    "sweep": ("FABRIC_TRANSPORTS", "fabric_sweep"),
    "tcp": ("run_tcp_sweep", "run_worker"),
    "wire": (
        "FabricFrame",
        "FabricFrameDecoder",
        "FabricFrameKind",
        "decode_fabric_frame",
        "encode_fabric_frame",
    ),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "CELL_KERNELS",
    "CellScheduler",
    "CoordinatorCore",
    "FABRIC_TRANSPORTS",
    "FabricClient",
    "FabricError",
    "FabricFrame",
    "FabricFrameDecoder",
    "FabricFrameKind",
    "FabricProtocolError",
    "FabricServer",
    "NetTimeoutError",
    "RetriesExhaustedError",
    "ServeError",
    "ServerThread",
    "WorkerCore",
    "WorkerLostError",
    "compute_cell",
    "decode_fabric_frame",
    "encode_fabric_frame",
    "fabric_sweep",
    "load_test",
    "run_loopback_sweep",
    "run_tcp_sweep",
    "run_worker",
    "sweep_keys",
]

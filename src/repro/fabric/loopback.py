"""Deterministic in-process fabric transport: the fabric dialect of the
seeded simulator (:mod:`repro.net.sim`).

The loopback runs the *production* endpoints — one
:class:`~repro.fabric.core.CoordinatorCore` and ``workers``
:class:`~repro.fabric.core.WorkerCore` instances — on the simulated
network, every frame crossing a real, faultable wire boundary.  Lost or
mangled frames are repaired by lease expiry and re-dispatch rather than
by a sender watchdog; a worker the coordinator has not answered says
HELLO again a lease timeout after its last one.

The dialect adds clock ticks, which arrive every time unit and drive
lease expiry.  A crashed worker (``FaultPlan.crashes``) simply stops
answering; its leases expire and its cells go to the surviving pool,
or, if the crash allows restart, a fresh worker rejoins a few units
later.  Failure is always typed: a cell that exhausts its dispatch
budget raises :class:`~repro.net.errors.RetriesExhaustedError`, a pool
with no live worker and no restart pending raises
:class:`~repro.fabric.errors.WorkerLostError`, and the step budget
bounds everything else with :class:`~repro.net.errors.NetTimeoutError`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

from ..net.faults import FaultInjector, FaultPlan
from ..net.sim import Simulator, WireMeter
from ..obs.trace import get_tracer
from ..store.keys import ResultKey
from ..store.store import ResultStore
from .core import CoordinatorCore, WorkerCore
from .errors import WorkerLostError
from .scheduler import DEFAULT_MAX_ATTEMPTS
from .wire import FabricFrame, decode_fabric_frame, encode_fabric_frame

__all__ = ["run_loopback_sweep", "DEFAULT_MAX_STEPS"]

#: Scheduler events processed before the sweep is declared wedged.
DEFAULT_MAX_STEPS = 100_000

#: Simulated time a lease (and an unanswered HELLO) stays outstanding.
LEASE_TIMEOUT = 8.0

_TICK_PERIOD = 1.0

#: Queue destination standing for the coordinator.
_COORDINATOR = -1


def run_loopback_sweep(
    keys: Sequence[ResultKey],
    *,
    store: Optional[ResultStore],
    workers: int,
    faults: Optional[FaultPlan] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    max_steps: int = DEFAULT_MAX_STEPS,
    compute: Optional[Callable[[ResultKey], bytes]] = None,
) -> Dict[int, bytes]:
    """Shard ``keys`` across ``workers`` in-process workers; returns
    cell index → canonical payload bytes, identical under any
    recoverable fault plan — the transport for tests and fault drills."""
    core = CoordinatorCore(
        keys,
        store=store,
        num_workers=workers,
        lease_timeout=LEASE_TIMEOUT,
        max_attempts=max_attempts,
    )
    pool: List[Optional[WorkerCore]] = [
        WorkerCore(index, store=store, compute=compute)
        for index in range(workers)
    ]
    restarting: Set[int] = set()  # crashed, replacement scheduled
    #: Live workers the coordinator has not answered yet -> when each
    #: last said HELLO.  A lost HELLO is said again a lease timeout on.
    unheard: Dict[int, float] = {}
    tracer = get_tracer()

    def hello(index: int) -> None:
        unheard[index] = sim.now
        sim.transmit(_COORDINATOR, index, pool[index].hello())

    def on_tick() -> None:
        for worker, frame in core.on_tick(sim.now):
            sim.transmit(worker, _COORDINATOR, frame)
        for index, said in list(unheard.items()):
            if sim.now - said >= LEASE_TIMEOUT:
                hello(index)
        if not core.done:
            sim.schedule(_TICK_PERIOD, "tick", ())

    def on_restart(index: int) -> None:
        restarting.discard(index)
        pool[index] = WorkerCore(index, store=store, compute=compute)
        if tracer:
            tracer.event("restart", worker=index, transport="fabric")
        hello(index)

    def on_frame(dest: int, origin: int, frame: FabricFrame) -> None:
        if dest == _COORDINATOR:
            for reply in core.on_frame(origin, frame, sim.now):
                sim.transmit(origin, _COORDINATOR, reply)
            return
        worker = pool[dest]
        if worker is None:
            return  # addressed to a crashed worker: lost on the floor
        unheard.pop(dest, None)
        for reply in worker.on_frame(frame):
            sim.transmit(_COORDINATOR, dest, reply)
        crash = sim.crash_due(dest, worker.cells_done)
        if crash is None:
            return
        pool[dest] = None
        core.on_worker_lost(dest, sim.now)
        sim.crashed(dest, crash, worker=dest)
        if crash.restart:
            restarting.add(dest)
        elif not restarting and not any(w is not None for w in pool):
            raise WorkerLostError(
                "every fabric worker crashed with no scheduled restart "
                "while cells were still outstanding"
            )

    sim = Simulator(
        name="fabric loopback sweep",
        decode=decode_fabric_frame,
        meter=WireMeter(encode_fabric_frame, "fabric", "loopback"),
        injector=FaultInjector(faults) if faults is not None else None,
        max_steps=max_steps,
        handlers={"tick": on_tick, "restart": on_restart},
        on_frame=on_frame,
        fault_label="fabric",
        event_fields={"transport": "fabric"},
    )
    for index in range(workers):
        hello(index)
    sim.schedule(_TICK_PERIOD, "tick", ())
    sim.run(lambda: core.done)
    return core.results

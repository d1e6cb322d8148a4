"""E1 — Theorem 2 + Corollary 1: ``CC(DISJ_{n,k}) = Θ(n log k + k)``.

Measures the realized communication of the three disjointness protocols
on the all-coordinates-must-be-covered worst case, sweeping ``n`` and
``k``, and reports each cost normalized by the paper's predicted leading
term:

* optimal protocol ÷ ``(n log2(e k) + k)`` — should be a bounded constant
  (Theorem 2's upper bound);
* naive protocol ÷ ``(n log2 n + k)`` — bounded constant (the intro's
  baseline);
* trivial protocol = ``n k`` exactly.

The crossover claim: for ``n ≫ k`` the optimal protocol beats the naive
one by a factor approaching ``log n / log k``.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.runner import ProtocolRun, run_protocol
from ..core.tasks import disjointness_task
from ..perf import kernels
from ..store.store import ResultStore
from ..store.sweep import SweepGrid
from ..protocols.naive_disjointness import NaiveDisjointnessProtocol
from ..protocols.optimal_disjointness import OptimalDisjointnessProtocol
from ..protocols.trivial import TrivialDisjointnessProtocol
from .tables import ExperimentTable
from .workloads import partition_instance, random_instance

__all__ = [
    "run",
    "CLASSIC_GRID",
    "DEFAULT_GRID",
    "measure_point",
    "E1_TRANSPORTS",
    "SWEEP",
]

#: Execution backends for the worst-case measurements: the in-memory
#: runner plus every ``repro.net`` transport (``repro.net.TRANSPORTS``,
#: spelled out so the in-memory grid never imports the networked
#: runtime; tests/net/test_e1_transport.py keeps the two equal).
#: Because the networked runtime is bit-identical to ``run_protocol``,
#: the rendered E1 table is byte-identical across all of them (pinned
#: by tests/net/).
E1_TRANSPORTS: Tuple[str, ...] = ("memory", "loopback", "tcp")

#: The original (n, k) grid, covering both regimes (n >= k^2 batch
#: phase and the endgame-only regime) at sizes every backend — the
#: message-level runner and both networked transports — completes in
#: seconds (``--quick`` on the CLI).
CLASSIC_GRID: Sequence[Tuple[int, int]] = (
    (64, 4),
    (256, 4),
    (1024, 4),
    (256, 8),
    (1024, 8),
    (2048, 8),
    (1024, 16),
    (2048, 16),
    (1024, 32),
    (2048, 64),
)

#: The default grid extends CLASSIC_GRID an order of magnitude.  The
#: points beyond (2048, 64) are reachable in seconds only because the
#: in-memory backend replays the protocols with the exact bigint
#: simulators; message by message the whole grid takes about 6 s,
#: against about 1 s for the simulators (2-CPU x86-64, Python 3.11;
#: ``benchmarks/test_reference_engines.py`` checks the two agree), and
#: networked transports should prefer
#: ``--quick`` — framing every message of the big points costs tens of
#: minutes.
DEFAULT_GRID: Sequence[Tuple[int, int]] = tuple(CLASSIC_GRID) + (
    (8192, 16),
    (8192, 64),
    (16384, 128),
    (32768, 128),
    (32768, 256),
)


def _execute(
    protocol, inputs, transport: str, fault_seed: Optional[int] = None
) -> ProtocolRun:
    if transport == "memory":
        return run_protocol(protocol, inputs)
    from ..net import run_networked
    from ..net.faults import chaos_plan

    faults = None
    if fault_seed is not None and transport == "loopback":
        faults = chaos_plan(fault_seed)
    return run_networked(
        protocol, inputs, transport=transport, faults=faults
    )


def measure_point(
    n: int,
    k: int,
    *,
    transport: str = "memory",
    fault_seed: Optional[int] = None,
) -> Tuple[int, int, int]:
    """Communication of (optimal, naive, trivial) on the partition
    worst case at one grid point.

    ``transport`` selects the execution backend: ``"memory"`` runs
    in-process via :func:`run_protocol`; ``"loopback"`` / ``"tcp"``
    route every message through the :mod:`repro.net` broadcast runtime.
    The measured bits are identical either way — including under
    ``fault_seed``, which (loopback only) injects the recoverable
    chaos plan: drops, delays, corruption, and a crash-restart, all of
    which the runtime absorbs without changing a single counted bit.

    On the in-memory backend with no fault injection the three
    protocols are replayed by the exact bigint simulators in
    :mod:`repro.perf.kernels` instead of the message-level runner — bit
    counts and outputs are pinned identical to :func:`run_protocol` by
    tests/perf/test_kernels.py, which is what lets the default grid
    reach the ``n`` in the tens of thousands.
    """
    if transport not in E1_TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; expected one of "
            f"{E1_TRANSPORTS}"
        )
    inputs = partition_instance(n, k)
    task = disjointness_task(n, k)
    expected = task.evaluate(inputs)
    if transport == "memory" and fault_seed is None:
        results = []
        for name, simulate in (
            ("OptimalDisjointnessProtocol",
             kernels.simulate_optimal_disjointness),
            ("NaiveDisjointnessProtocol",
             kernels.simulate_naive_disjointness),
            ("TrivialDisjointnessProtocol",
             kernels.simulate_trivial_disjointness),
        ):
            bits, output = simulate(n, k, inputs)
            if output != expected:
                raise AssertionError(f"{name} wrong at n={n}, k={k}")
            results.append(bits)
        return tuple(results)  # type: ignore[return-value]
    results = []
    for protocol in (
        OptimalDisjointnessProtocol(n, k),
        NaiveDisjointnessProtocol(n, k),
        TrivialDisjointnessProtocol(n, k),
    ):
        outcome = _execute(protocol, inputs, transport, fault_seed)
        if outcome.output != expected:
            raise AssertionError(
                f"{type(protocol).__name__} wrong at n={n}, k={k}"
            )
        results.append(outcome.bits_communicated)
    return tuple(results)  # type: ignore[return-value]


def _cell(
    params: Dict[str, int],
    seed: int,
    *,
    check_random_instances: bool = True,
    transport: str = "memory",
    fault_seed: Optional[int] = None,
) -> Tuple[int, int, int]:
    """One E1 grid cell: worst-case bits at ``(n, k)`` plus an optional
    random-instance correctness check.

    Pure in ``(params, seed)`` — the random check instances are drawn
    from a per-cell RNG seeded by :func:`repro.perf.derive_seed`, never
    from a sweep-wide RNG, so the sweep is parallelizable without
    changing any result.  The random instances are checked with the
    bigint simulators whatever the transport.
    """
    n, k = params["n"], params["k"]
    bits = measure_point(n, k, transport=transport, fault_seed=fault_seed)
    if check_random_instances:
        rng = random.Random(seed)
        task = disjointness_task(n, k)
        inputs = random_instance(n, k, rng)
        for name, simulate in (
            ("OptimalDisjointnessProtocol",
             kernels.simulate_optimal_disjointness),
            ("NaiveDisjointnessProtocol",
             kernels.simulate_naive_disjointness),
        ):
            _bits, output = simulate(n, k, inputs)
            if output != task.evaluate(inputs):
                raise AssertionError(f"{name} wrong on random instance")
    return bits


#: The E1 grid: cells are keyed by ``(n, k)`` and seeded from base seed
#: 0; neither the transport nor the random-instance checks change the
#: measured bits, so they stay out of the address.
SWEEP = SweepGrid(
    experiment="E1",
    cell=_cell,
    default=DEFAULT_GRID,
    quick=CLASSIC_GRID,
    params_of=lambda point: {"n": point[0], "k": point[1]},
    base_seed=0,
)


def run(
    grid: Sequence[Tuple[int, int]] = DEFAULT_GRID,
    *,
    check_random_instances: bool = True,
    seed: int = SWEEP.base_seed,
    workers: Optional[int] = None,
    transport: str = "memory",
    store: Optional[ResultStore] = None,
    fault_seed: Optional[int] = None,
    quick: bool = False,
) -> ExperimentTable:
    """Run the E1 sweep and return the result table.

    ``quick`` (``--quick`` on the CLI) swaps the default grid for
    :data:`CLASSIC_GRID` — the pre-extension points every backend
    completes in seconds.  Use it for networked-transport sweeps, where
    framing every message of the extended points costs tens of minutes.
    An explicitly passed ``grid`` always wins.

    ``fault_seed`` (with ``transport="loopback"``) injects the seeded
    recoverable chaos plan into every networked execution; the table
    stays byte-identical because recoverable faults never change
    counted bits.  Faulted cells are never served from or written to
    the store under a different address — the measured value is the
    same pure function of ``(n, k)``.

    ``workers > 1`` evaluates grid points in parallel processes via
    :func:`repro.perf.map_grid`; the rendered table is byte-identical to
    the serial run.

    ``transport`` routes the worst-case measurements through the chosen
    backend (``"memory"``, ``"loopback"``, or ``"tcp"``); because the
    networked runtime is bit-identical to the in-memory runner, the
    rendered table does not depend on the choice.  Random-instance
    correctness checks always use the in-memory bigint simulators.

    ``store`` serves already-computed grid cells from the result store
    and checkpoints fresh ones into it (``--store DIR`` on the CLI); the
    measured bits are pure functions of ``(n, k)``, so neither the
    transport nor the random-instance checks participate in the cell
    address and the cached table is byte-identical to a cold run.
    """
    if quick and grid is DEFAULT_GRID:
        grid = SWEEP.quick
    if transport not in E1_TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; expected one of "
            f"{E1_TRANSPORTS}"
        )
    table = ExperimentTable(
        experiment_id="E1",
        title="Set disjointness communication scaling (worst-case input)",
        paper_claim=(
            "Theorem 2 / Corollary 1: CC(DISJ_{n,k}) = Theta(n log k + k); "
            "the Section 5 protocol achieves O(n log k + k), the naive "
            "protocol O(n log n + k)"
        ),
        columns=[
            "n", "k",
            "optimal", "naive", "trivial",
            "opt/(n·lg(ek)+k)", "naive/(n·lg n+k)", "naive/opt",
        ],
    )
    measurements = dataclasses.replace(SWEEP, base_seed=seed).map(
        grid,
        store=store,
        workers=workers,
        check_random_instances=check_random_instances,
        transport=transport,
        fault_seed=fault_seed,
    )
    optimal_ratios: List[float] = []
    for (n, k), (optimal_bits, naive_bits, trivial_bits) in zip(
        grid, measurements
    ):
        optimal_norm = optimal_bits / (n * math.log2(math.e * k) + k)
        naive_norm = naive_bits / (n * max(math.log2(n), 1.0) + k)
        table.add_row(
            n, k, optimal_bits, naive_bits, trivial_bits,
            optimal_norm, naive_norm, naive_bits / optimal_bits,
        )
        optimal_ratios.append(optimal_norm)
    table.add_note(
        "optimal/(n lg(ek)+k) staying bounded (max "
        f"{max(optimal_ratios):.3f}) exhibits the O(n log k + k) upper "
        "bound; naive/opt grows with n at fixed k, the log n vs log k "
        "separation"
    )
    return table

"""E16 — cross-model disjointness: broadcast vs message-passing cost.

The paper's Theorem 2 puts disjointness at ``Θ(n log k + k)`` bits *in
the broadcast model*; in the coordinator (message-passing) model the
same task costs ``Θ(nk)`` bits (arXiv:1305.4696) because every bit is
paid per private link — no blackboard lets one write serve ``k``
readers.  E16 runs the same worst-case input grids through both media
(:mod:`repro.topology`) and tabulates the gap:

* broadcast optimal (E1's Section 5 protocol) ÷ ``(n log2(e k) + k)`` —
  a bounded constant;
* coordinator relay (:class:`~repro.topology.protocols.
  CoordinatorDisjointnessProtocol`, ``n(2k-1)`` bits) ÷ ``nk`` — a
  bounded constant near 2;
* the relay/optimal ratio — the measured value of the broadcast medium,
  growing like ``k / log k`` at fixed ``n``.

The table's note pins the growth rates directly: at the largest ``n``
swept across several ``k``, the log-log slope of bits vs ``k`` is ≈ 1
for the coordinator protocols and well below 1 for the broadcast
optimum.

A second, exact-analysis stage (:data:`INFO_POINTS`, tiny instances)
computes the per-*view* information decomposition of both media under
the uniform input distribution — what each player's private view, and
the coordinator hub's total view, reveal about the inputs
(:func:`repro.topology.analysis.per_view_information`).  Both stages
run through the result store under their own
:data:`~repro.store.keys.CODE_VERSIONS` tags (``E16`` / ``E16-info``)
and shard across fabric workers with ``--fabric``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.analysis import external_information_cost
from ..core.runner import run_protocol
from ..core.tasks import disjointness_task
from ..information.distribution import DiscreteDistribution
from ..perf import kernels
from ..protocols.optimal_disjointness import OptimalDisjointnessProtocol
from ..protocols.trivial import TrivialDisjointnessProtocol
from ..store.keys import code_version
from ..store.store import ResultStore
from ..store.sweep import checkpointed_map_grid
from ..topology.analysis import per_view_information
from ..topology.medium import BROADCAST, COORDINATOR
from ..topology.protocols import (
    CoordinatorDisjointnessProtocol,
    CoordinatorTrivialDisjointness,
)
from ..topology.runtime import run_on_medium
from .e1_disjointness_scaling import CLASSIC_GRID
from .tables import ExperimentTable
from .workloads import partition_instance

__all__ = [
    "run",
    "CLASSIC_GRID",
    "DEFAULT_GRID",
    "INFO_POINTS",
    "measure_point",
    "measure_info_point",
]

#: The default grid: E1's classic grid plus two deeper points the
#: coordinator runs still complete in seconds (their cost is ~2nk bits
#: moved through the message-level runner).
DEFAULT_GRID: Sequence[Tuple[int, int]] = tuple(CLASSIC_GRID) + (
    (8192, 16),
    (8192, 64),
)

#: Tiny ``(n, k)`` instances for the exact per-view information stage —
#: the protocol-tree enumeration is over all ``2^{nk}`` input tuples.
INFO_POINTS: Sequence[Tuple[int, int]] = ((2, 2), (2, 3), (3, 2))


def measure_point(n: int, k: int) -> Tuple[int, int, int]:
    """Bits of (broadcast optimal, coordinator relay, coordinator
    trivial) disjointness on the partition worst case at ``(n, k)``.

    The broadcast measurement reuses E1's engine (vectorized bigint
    simulator when numpy is present, the message-level runner
    otherwise — bit-identical either way); the coordinator protocols
    run through :func:`repro.topology.runtime.run_on_medium`.  Every
    measurement asserts the protocol's output against the task before
    the bits are trusted.
    """
    inputs = partition_instance(n, k)
    task = disjointness_task(n, k)
    expected = task.evaluate(inputs)

    if kernels.use_vectorized():
        broadcast_bits, output = kernels.simulate_optimal_disjointness(
            n, k, inputs
        )
        if output != expected:
            raise AssertionError(
                f"OptimalDisjointnessProtocol wrong at n={n}, k={k}"
            )
    else:
        outcome = run_protocol(OptimalDisjointnessProtocol(n, k), inputs)
        if outcome.output != expected:
            raise AssertionError(
                f"OptimalDisjointnessProtocol wrong at n={n}, k={k}"
            )
        broadcast_bits = outcome.bits_communicated

    coordinator_bits = []
    for protocol, exact_cost in (
        (CoordinatorDisjointnessProtocol(n, k), n * (2 * k - 1)),
        (CoordinatorTrivialDisjointness(n, k), n * k),
    ):
        result = run_on_medium(protocol, COORDINATOR, inputs)
        if result.output != expected:
            raise AssertionError(
                f"{type(protocol).__name__} wrong at n={n}, k={k}"
            )
        if result.bits_communicated != exact_cost:
            raise AssertionError(
                f"{type(protocol).__name__} moved "
                f"{result.bits_communicated} bits at n={n}, k={k}; "
                f"its closed form says {exact_cost}"
            )
        coordinator_bits.append(result.bits_communicated)

    return (broadcast_bits, coordinator_bits[0], coordinator_bits[1])


def _measure_grid_point(point: Tuple[int, int]) -> Tuple[int, int, int]:
    """One E16 cost cell — pure in ``(n, k)`` (no randomness)."""
    n, k = point
    return measure_point(n, k)


def measure_info_point(n: int, k: int) -> Dict[str, Any]:
    """Exact per-view information decomposition at a tiny ``(n, k)``.

    Under the uniform distribution over all ``(2^n)^k`` input tuples,
    computes for each medium the external information cost of the full
    transcript and the per-node view decomposition
    (:func:`~repro.topology.analysis.per_view_information`): broadcast
    via the E1 trivial protocol (every view is the whole board),
    coordinator via the relay protocol (views are the private links;
    the hub's row is what the coordinator ends up knowing).  Node keys
    are stringified so the result is canonically serializable for the
    store.
    """
    masks = range(1 << n)
    tuples = [(m,) for m in masks]
    for _ in range(k - 1):
        tuples = [prefix + (m,) for prefix in tuples for m in masks]
    input_dist = DiscreteDistribution.uniform(tuples)

    result: Dict[str, Any] = {}
    for name, protocol, medium in (
        ("broadcast", TrivialDisjointnessProtocol(n, k), BROADCAST),
        ("coordinator", CoordinatorDisjointnessProtocol(n, k), COORDINATOR),
    ):
        views = per_view_information(protocol, medium, input_dist)
        result[name] = {
            "external_ic": external_information_cost(
                protocol, input_dist, medium=medium
            ),
            "per_view": {
                str(node): dict(decomposition)
                for node, decomposition in sorted(views.items())
            },
        }
    return result


def _measure_info_grid_point(point: Tuple[int, int]) -> Dict[str, Any]:
    """One E16-info cell — pure in ``(n, k)``."""
    n, k = point
    return measure_info_point(n, k)


def _loglog_slope(points: Sequence[Tuple[int, int]]) -> float:
    """Least-squares slope of ``log2(bits)`` against ``log2(k)``."""
    xs = [math.log2(k) for k, _ in points]
    ys = [math.log2(bits) for _, bits in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    return sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
    ) / sum((x - mean_x) ** 2 for x in xs)


def growth_slopes(
    grid: Sequence[Tuple[int, int]],
    measurements: Sequence[Tuple[int, int, int]],
) -> Optional[Tuple[int, float, float]]:
    """The measured log-log growth rates vs ``k`` at fixed ``n``.

    Picks the ``n`` swept across the most distinct ``k`` values (ties
    to the largest ``n``) and returns ``(n, broadcast_slope,
    coordinator_slope)`` — or ``None`` when no ``n`` appears with at
    least two distinct ``k``.  The paper-claim contrast in one pair of
    numbers: coordinator ≈ 1 (``Θ(nk)``), broadcast well below 1
    (``Θ(n log k + k)``).
    """
    by_n: Dict[int, List[Tuple[int, Tuple[int, int, int]]]] = {}
    for (n, k), bits in zip(grid, measurements):
        by_n.setdefault(n, []).append((k, bits))
    candidates = [
        (n, points)
        for n, points in by_n.items()
        if len({k for k, _ in points}) >= 2
    ]
    if not candidates:
        return None
    n, points = max(
        candidates, key=lambda entry: (len(entry[1]), entry[0])
    )
    broadcast = _loglog_slope([(k, bits[0]) for k, bits in points])
    coordinator = _loglog_slope([(k, bits[1]) for k, bits in points])
    return (n, broadcast, coordinator)


def run(
    grid: Sequence[Tuple[int, int]] = DEFAULT_GRID,
    *,
    info_points: Sequence[Tuple[int, int]] = INFO_POINTS,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
    quick: bool = False,
    fabric: Optional[int] = None,
    fabric_transport: str = "tcp",
) -> ExperimentTable:
    """Run the E16 cross-model sweep and return the result table.

    ``quick`` (``--quick`` on the CLI) swaps the default grid for E1's
    :data:`CLASSIC_GRID`; an explicitly passed ``grid`` always wins.

    ``store`` serves already-computed cells from the result store and
    checkpoints fresh ones (``--store DIR``); both stages' cells are
    pure functions of ``(n, k)`` with no seed in the address, so a warm
    re-run renders a byte-identical table.  ``workers`` parallelizes
    the cost grid locally; ``fabric`` (``--fabric N``, requires
    ``store``) shards it across fabric workers instead — both
    byte-identical to the serial path.
    """
    if quick and grid is DEFAULT_GRID:
        grid = CLASSIC_GRID
    table = ExperimentTable(
        experiment_id="E16",
        title="Cross-model disjointness: broadcast vs coordinator cost",
        paper_claim=(
            "Theorem 2: CC(DISJ_{n,k}) = Theta(n log k + k) on the "
            "blackboard; the coordinator (message-passing) model pays "
            "Theta(nk) [arXiv:1305.4696] — the gap is the value of the "
            "broadcast medium"
        ),
        columns=[
            "n", "k",
            "bcast_opt", "coord_relay", "coord_trivial",
            "opt/(n·lg(ek)+k)", "relay/(n·k)", "relay/opt",
        ],
    )
    if fabric is not None:
        from ..fabric.sweep import fabric_checkpointed_map_grid

        measurements = fabric_checkpointed_map_grid(
            list(grid),
            store=store,
            experiment="E16",
            version=code_version("E16"),
            params_of=lambda point: {"n": point[0], "k": point[1]},
            base_seed=None,
            workers=fabric,
            transport=fabric_transport,
        )
    else:
        measurements = checkpointed_map_grid(
            _measure_grid_point,
            list(grid),
            store=store,
            experiment="E16",
            version=code_version("E16"),
            params_of=lambda point: {"n": point[0], "k": point[1]},
            workers=workers,
            base_seed=None,
        )
    for (n, k), (opt_bits, relay_bits, trivial_bits) in zip(
        grid, measurements
    ):
        table.add_row(
            n, k, opt_bits, relay_bits, trivial_bits,
            opt_bits / (n * math.log2(math.e * k) + k),
            relay_bits / (n * k),
            relay_bits / opt_bits,
        )

    slopes = growth_slopes(list(grid), measurements)
    if slopes is not None:
        n, broadcast_slope, coordinator_slope = slopes
        table.add_note(
            f"log-log slope of bits vs k at n={n}: coordinator relay "
            f"{coordinator_slope:.3f} (Theta(nk) predicts 1), broadcast "
            f"optimal {broadcast_slope:.3f} (Theta(n log k + k) predicts "
            "well below 1) — the measured model separation"
        )

    # The exact per-view information stage (tiny instances, same store
    # discipline, its own kernel tag).
    info_cells = checkpointed_map_grid(
        _measure_info_grid_point,
        list(info_points),
        store=store,
        experiment="E16-info",
        version=code_version("E16-info"),
        params_of=lambda point: {"n": point[0], "k": point[1]},
        workers=None,
        base_seed=None,
    )
    for (n, k), cell in zip(info_points, info_cells):
        player_internal = [
            cell["coordinator"]["per_view"][str(node)]["internal"]
            for node in range(k)
        ]
        table.add_note(
            f"per-view info at (n={n}, k={k}): broadcast external IC "
            f"{cell['broadcast']['external_ic']:.4g} (every view = the "
            "board); coordinator external IC "
            f"{cell['coordinator']['external_ic']:.4g}, hub view reveals "
            f"{cell['coordinator']['per_view'][str(k)]['external']:.4g}, "
            "player internal info "
            f"[{', '.join(f'{v:.4g}' for v in player_internal)}]"
        )
    return table

"""Same-process performance guards.

perfbench (``perfbench/run.py``, see its README) is the repository's
benchmark: it times each workload end to end and layer by layer against
the parent commit.  These tests keep the few checks it does not make.
Each one times two things in this process and bounds their ratio, so it
needs no baseline file:

* the tree walk against the dict-driven reference walk of
  ``repro.check.mutations`` and the batched dart sampler against its
  scalar loop (speedup floors);
* an installed ``NullTracer`` against the plain batched tree walk, and
  the loopback fabric against a serial write-through (overhead
  ceilings);
* the fast bootstrap and the sequential-AND closed form against a fixed
  pure-Python calibration loop (ceilings on the ratio, so a kernel that
  goes quadratic fails on any machine).

A fabric coordinator sharing a core with its timer cannot show its
speed on a starved machine, so the fabric and speedup bounds are
enforced only at
``MIN_CPUS_FOR_SPEEDUP_CHECK`` CPUs or more; below that the ratio is
measured and printed (``-s``) but not asserted.

Run with::

    REPRO_BENCH_STORE=0 PYTHONPATH=src python -m pytest benchmarks/test_perf_guards.py -s
"""

import os
import random
import shutil
import tempfile
import time

import pytest

#: Enforce the fabric and speedup bounds only on machines where
#: parallel work can actually win.
MIN_CPUS_FOR_SPEEDUP_CHECK = 4

#: The tree floor is pinned on a noisy-AND workload: branching protocols
#: are where the batched walk's row-level math dominates; ingestion-bound
#: workloads (wide sequential AND) cap nearer 7x.
TREE_KERNEL_SPEEDUP_FLOOR = 10.0
SAMPLER_KERNEL_SPEEDUP_FLOOR = 5.0

#: The batched tree walk with an explicitly installed ``NullTracer`` may
#: cost at most this multiple of the plain walk.  It catches the
#: falsy-guard contract breaking (trace events built before the
#: ``if tracer:`` check).
NULL_TRACER_OVERHEAD_CEILING = 1.25

#: The loopback fabric runs the same cell kernels in-process plus
#: per-cell framing, CRC sealing, scheduling and store write-through;
#: that tax may cost at most this multiple of the bare serial
#: write-through on E2's quick grid.
FABRIC_OVERHEAD_CEILING = 2.5
FABRIC_WORKERS = 3

#: ``kernel_s / calibration_s`` ceilings: twice the ratio measured when
#: these kernels were first guarded (0.013836 s and 0.014180 s against a
#: 0.016810 s calibration loop, 1-CPU x86-64, Python 3.11.7).
FAST_BOOTSTRAP_CEILING = 1.646
CLOSED_FORM_CEILING = 1.687

ENFORCE = (os.cpu_count() or 1) >= MIN_CPUS_FOR_SPEEDUP_CHECK


@pytest.fixture(autouse=True)
def metrics_off(obs_metrics):
    """Time with the metrics registry off.  ``obs_metrics`` turns it on
    for every benchmark test; these bounds were set on uninstrumented
    runs, and per-node counters would tax the two sides of a ratio
    unequally."""
    obs_metrics.enabled = False
    yield


def best_of(fn, repeats=3):
    """Minimum wall-clock of ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def calibration_workload():
    """A fixed, dependency-free workload whose timing tracks the
    machine's single-thread Python throughput."""
    acc = 0.0
    for i in range(1, 200_001):
        acc += (i % 7) * 0.5 - (i % 3)
    return acc


def report(name, value, bound, enforced=True):
    print(f"\n{name}: {value:.3f} (bound {bound}"
          f"{'' if enforced else ', not enforced on this machine'})")


def need_numpy():
    from repro.perf import kernels

    if not kernels.numpy_available():
        pytest.skip("numpy unavailable: the vectorized kernel cannot run")
    return kernels


def tree_batched_and8():
    from repro.core import joint_transcript_distribution
    from repro.lowerbounds.hard_distribution import and_hard_distribution
    from repro.protocols import SequentialAndProtocol

    joint_transcript_distribution(
        SequentialAndProtocol(8), and_hard_distribution(8)
    )


def test_tree_walk_speedup():
    """Engine vs reference tree walk: ``NoisySequentialAnd(10, 0.125)``
    over the k=10 hard-distribution support (1023 inputs)."""
    kernels = need_numpy()
    from repro.check.mutations import shared_walk_reference
    from repro.lowerbounds.hard_distribution import and_hard_distribution
    from repro.protocols import NoisySequentialAndProtocol

    protocol = NoisySequentialAndProtocol(10, 0.125)
    keys = list(dict.fromkeys(
        tuple(x) for (x, _z), _p in and_hard_distribution(10).items()
    ))

    def walk(engine):
        engine(protocol, keys)

    legacy_s = best_of(lambda: walk(shared_walk_reference), 1)
    vectorized_s = best_of(lambda: walk(kernels.tree_walk_sorted_leaves), 3)
    speedup = legacy_s / vectorized_s
    report("tree walk engine/reference speedup", speedup,
           TREE_KERNEL_SPEEDUP_FLOOR, ENFORCE)
    if ENFORCE:
        assert speedup >= TREE_KERNEL_SPEEDUP_FLOOR


def test_dart_sampler_speedup():
    """Batched vs scalar Lemma 7 sampler: 64 cells over a 256-element
    universe, 96 lockstep rounds."""
    need_numpy()
    from repro.compression.sampling import (
        BatchedDartSampler,
        cell_seed,
        simulate_sampling_round,
    )
    from repro.information.distribution import DiscreteDistribution

    cells = []
    for c in range(64):
        universe = tuple(range(256))
        eta = DiscreteDistribution(
            {v: (v + 1 + (c % 7)) ** 1.5 for v in universe}, normalize=True
        )
        nu = DiscreteDistribution(
            {v: 1.0 + ((v * 31 + c) % 11) for v in universe}, normalize=True
        )
        cells.append((eta, nu, universe))

    def scalar():
        for index, (eta, nu, universe) in enumerate(cells):
            rng = random.Random(cell_seed(0, index))
            for _ in range(96):
                simulate_sampling_round(eta, nu, rng, universe=universe)

    legacy_s = best_of(scalar, 2)
    vectorized_s = best_of(lambda: BatchedDartSampler(cells, seed=0).advance(96), 3)
    speedup = legacy_s / vectorized_s
    report("dart sampler batched/scalar speedup", speedup,
           SAMPLER_KERNEL_SPEEDUP_FLOOR, ENFORCE)
    if ENFORCE:
        assert speedup >= SAMPLER_KERNEL_SPEEDUP_FLOOR


def test_null_tracer_overhead():
    from repro.obs import NullTracer, using_tracer

    def nulltraced():
        with using_tracer(NullTracer()):
            tree_batched_and8()

    plain_s = best_of(tree_batched_and8)
    nulltraced_s = best_of(nulltraced)
    overhead = nulltraced_s / plain_s
    report("NullTracer / plain batched tree walk", overhead,
           NULL_TRACER_OVERHEAD_CEILING)
    assert overhead <= NULL_TRACER_OVERHEAD_CEILING, (
        "a hot path is paying for tracing while it is off"
    )


def test_fabric_loopback_overhead():
    """Cold E2-quick sweep: loopback fabric vs a serial write-through of
    the same ``compute_cell_payload`` bodies."""
    from repro.fabric.cells import compute_cell_payload, sweep_keys
    from repro.fabric.sweep import fabric_sweep
    from repro.store.store import ResultStore

    keys = sweep_keys("E2", quick=True)

    def timed_cold(sweep):
        root = tempfile.mkdtemp(prefix="repro-perf-fabric-")
        try:
            started = time.perf_counter()
            sweep(ResultStore(root))
            return time.perf_counter() - started
        finally:
            shutil.rmtree(root)

    def serial(store):
        for key in keys:
            store.put(key, compute_cell_payload(key))

    def loopback(store):
        fabric_sweep(keys, store=store, workers=FABRIC_WORKERS,
                     transport="loopback")

    serial_s = min(timed_cold(serial) for _ in range(2))
    loopback_s = min(timed_cold(loopback) for _ in range(2))
    overhead = loopback_s / serial_s
    report("fabric loopback / serial write-through", overhead,
           FABRIC_OVERHEAD_CEILING, ENFORCE)
    if ENFORCE:
        assert overhead <= FABRIC_OVERHEAD_CEILING


def fast_bootstrap():
    from repro.information.estimation import (
        bootstrap_mutual_information_interval,
    )

    rng = random.Random(6)
    pairs = []
    for _ in range(400):
        x = tuple(rng.randrange(2) for _ in range(8))
        t = "".join(str(b) for b in x[: rng.randrange(1, 8)])
        pairs.append((x, t))
    bootstrap_mutual_information_interval(
        pairs, rng=random.Random(0), replicates=60
    )


def closed_form_cic():
    from repro.lowerbounds.analytic import sequential_and_cic_closed_form

    # The function is memoized per process; time the O(k) sum itself.
    sequential_and_cic_closed_form.__wrapped__(65536)


@pytest.mark.parametrize(
    "kernel, ceiling",
    [(fast_bootstrap, FAST_BOOTSTRAP_CEILING),
     (closed_form_cic, CLOSED_FORM_CEILING)],
    ids=["fast_bootstrap", "closed_form_cic_k65536"],
)
def test_calibrated_kernel(kernel, ceiling):
    calibration_s = best_of(calibration_workload, 5)
    ratio = best_of(kernel) / calibration_s
    report(f"{kernel.__name__} / calibration", ratio, ceiling)
    assert ratio <= ceiling

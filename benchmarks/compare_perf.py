#!/usr/bin/env python
"""Perf-regression checker for the repro's hot kernels.

Re-times a small set of representative kernels (batched tree
enumeration, the fast bootstrap, one E1 grid point, the E1 sweep serial
vs parallel) and compares them against ``benchmarks/perf_baseline.json``.
It also runs the vectorized-vs-legacy kernel head-to-heads (the batched
tree walk and the batched dart sampler) and enforces their speedup
floors — those are same-process ratio checks, so they need no baseline
calibration.  The sweep fabric (docs/fabric.md) gets the same
treatment: cold fabric-vs-serial sweep timing on E2's quick grid (the
loopback coordination overhead is a ratio check with a ceiling) and
warm-serve latency through a live ``FabricServer`` (p50/p99 over ~224
requests from 8 concurrent clients, checked against the calibrated
baseline).

Usage::

    PYTHONPATH=src python benchmarks/compare_perf.py             # check
    PYTHONPATH=src python benchmarks/compare_perf.py --update    # reseed
    PYTHONPATH=src python benchmarks/compare_perf.py --tolerance 3

A kernel fails the check when it runs slower than
``tolerance × calibrated baseline``.  Calibration: the baseline stores
the timing of a fixed pure-Python workload alongside the kernels; at
check time the same workload is re-timed and every baseline figure is
scaled by the observed machine-speed ratio, so a baseline seeded on one
machine transfers to faster/slower hardware without false alarms.  The
default tolerance (2×) is deliberately generous — this harness exists to
catch algorithmic regressions (a kernel going quadratic), not scheduler
noise.

The E1 serial-vs-parallel speedup is *recorded* (with the machine's CPU
count) but only *enforced* when the checking machine has at least 4
CPUs — on fewer cores a process pool cannot win wall-clock and the
number documents that honestly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time


BASELINE_PATH = os.path.join(os.path.dirname(__file__), "perf_baseline.json")

#: Enforce the parallel-speedup floor only on machines where a pool can
#: actually win, and only when the sweep is heavy enough that worker
#: startup cannot dominate.
MIN_CPUS_FOR_SPEEDUP_CHECK = 4
MIN_SERIAL_SECONDS_FOR_SPEEDUP_CHECK = 1.0
SPEEDUP_FLOOR = 2.0

#: Vectorized-vs-legacy floors (same-process ratios, enforced on
#: machines with >= MIN_CPUS_FOR_SPEEDUP_CHECK CPUs and numpy).  The
#: tree floor is pinned on a noisy-AND workload — branching protocols
#: are where the batched walk's row-level math dominates; ingestion-
#: bound workloads (wide sequential AND) cap nearer 7x.
TREE_KERNEL_SPEEDUP_FLOOR = 10.0
SAMPLER_KERNEL_SPEEDUP_FLOOR = 5.0

#: Fabric cold-sweep overhead: the loopback fabric runs the same cell
#: kernels in-process plus per-cell framing, CRC sealing, scheduling,
#: and store write-through; that tax may cost at most this multiple of
#: the bare serial write-through.  A same-process ratio (no calibration
#: needed), but only enforced on >= MIN_CPUS_FOR_SPEEDUP_CHECK CPUs —
#: on a starved box the coordinator and the timer share one core.  The
#: TCP sweep (real worker subprocesses) is recorded, never enforced:
#: on E2's quick grid one cell is ~75% of the work (Amdahl), so its
#: wall-clock documents startup cost, not a regression signal.
FABRIC_OVERHEAD_CEILING = 2.5
FABRIC_WORKERS = 3
FABRIC_SERVE_CLIENTS = 8
FABRIC_SERVE_ROUNDS = 4  # 8 clients x 4 rounds x 7 keys = 224 requests

#: The legacy runner's own historical default sweep (~2 s serial on the
#: seed machine) — timed with ``kernel="legacy"`` so the parallel
#: speedup keeps measuring second-scale work (the vectorized simulators
#: finish this grid in milliseconds, where pool startup is all there is).
E1_GRID = (
    (64, 4), (256, 4), (1024, 4),
    (256, 8), (1024, 8), (2048, 8),
    (1024, 16), (2048, 16),
    (1024, 32), (2048, 64),
)


def best_of(fn, repeats=3):
    """Minimum wall-clock of ``repeats`` runs — the least-noisy estimator
    for a cold-cache-free kernel."""
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


def kernel_tree_batched_and8():
    from repro.core import joint_transcript_distribution
    from repro.lowerbounds.hard_distribution import and_hard_distribution
    from repro.protocols import SequentialAndProtocol

    joint_transcript_distribution(
        SequentialAndProtocol(8), and_hard_distribution(8)
    )


def kernel_fast_bootstrap():
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


def kernel_e1_grid_point():
    from repro.experiments.e1_disjointness_scaling import measure_point

    measure_point(1024, 8)


def kernel_closed_form_cic():
    from repro.lowerbounds.analytic import sequential_and_cic_closed_form

    # The function is memoized per process; time the O(k) sum itself.
    sequential_and_cic_closed_form.__wrapped__(65536)


def kernel_tree_batched_and8_nulltraced():
    from repro.obs import NullTracer, using_tracer

    with using_tracer(NullTracer()):
        kernel_tree_batched_and8()


KERNELS = {
    "tree_batched_and8": kernel_tree_batched_and8,
    "tree_batched_and8_nulltraced": kernel_tree_batched_and8_nulltraced,
    "fast_bootstrap": kernel_fast_bootstrap,
    "e1_grid_point": kernel_e1_grid_point,
    "closed_form_cic_k65536": kernel_closed_form_cic,
}

#: The batched tree walk with an explicitly installed ``NullTracer``
#: may cost at most this multiple of the plain walk.  Both sides are
#: timed in the same process on the same machine, so this is a pure
#: ratio guard — it catches the falsy-guard contract breaking (e.g.
#: trace events being constructed before the ``if tracer:`` check),
#: which calibration-scaled absolute baselines would absorb as noise.
NULL_TRACER_OVERHEAD_CEILING = 1.25


def time_e1_sweep():
    from repro.experiments.e1_disjointness_scaling import run

    serial_s = best_of(
        lambda: run(grid=E1_GRID, kernel="legacy"), repeats=2
    )
    workers4_s = best_of(
        lambda: run(grid=E1_GRID, workers=4, kernel="legacy"), repeats=2
    )
    return serial_s, workers4_s


def measure_kernel_speedups():
    """Vectorized-vs-legacy head-to-heads, timed in this process.

    The legacy side of the tree walk is second-scale, so it is timed
    once; the millisecond-scale vectorized side takes the best of 3 to
    shed timer noise.  Returns ``None`` when numpy is unavailable (the
    vectorized kernel cannot run at all there).
    """
    from repro.perf import kernels

    if not kernels.numpy_available():
        return None

    import random as random_module

    from repro.compression.sampling import (
        BatchedDartSampler,
        cell_seed,
        simulate_sampling_round,
    )
    from repro.core import tree
    from repro.information.distribution import DiscreteDistribution
    from repro.lowerbounds.hard_distribution import and_hard_distribution
    from repro.protocols import NoisySequentialAndProtocol

    # --- batched tree walk: NoisySequentialAnd(10) over the full k=10
    # hard-distribution support (1023 inputs, branching at every level).
    protocol = NoisySequentialAndProtocol(10, 0.125)
    seen = set()
    keys = []
    for (x, _z), _p in and_hard_distribution(10).items():
        if x not in seen:
            seen.add(x)
            keys.append(tuple(x))

    def walk(engine):
        memo = tree.MessageDistributionMemo()
        engine(protocol, keys, max_messages=10_000, memo=memo)

    tree_legacy_s = best_of(
        lambda: walk(tree._legacy_walk_sorted_leaves), repeats=1
    )
    tree_vectorized_s = best_of(
        lambda: walk(kernels.tree_walk_sorted_leaves), repeats=3
    )

    # --- batched dart sampler: 64 Lemma 7 cells over a 256-element
    # universe, 96 lockstep rounds (the scalar path re-scans the
    # universe every round; the batched one hits its cached tables).
    def make_cells():
        cells = []
        for c in range(64):
            universe = tuple(range(256))
            eta = DiscreteDistribution(
                {v: (v + 1 + (c % 7)) ** 1.5 for v in universe},
                normalize=True,
            )
            nu = DiscreteDistribution(
                {v: 1.0 + ((v * 31 + c) % 11) for v in universe},
                normalize=True,
            )
            cells.append((eta, nu, universe))
        return cells

    cells = make_cells()

    def sampler_scalar():
        for index, (eta, nu, universe) in enumerate(cells):
            rng = random_module.Random(cell_seed(0, index))
            for _ in range(96):
                simulate_sampling_round(eta, nu, rng, universe=universe)

    def sampler_batched():
        BatchedDartSampler(cells, seed=0).advance(96)

    sampler_legacy_s = best_of(sampler_scalar, repeats=2)
    sampler_vectorized_s = best_of(sampler_batched, repeats=3)

    return {
        "tree_walk_noisy_and10": {
            "legacy_s": tree_legacy_s,
            "vectorized_s": tree_vectorized_s,
            "speedup": tree_legacy_s / tree_vectorized_s,
            "floor": TREE_KERNEL_SPEEDUP_FLOOR,
        },
        "dart_sampler_64cells_u256": {
            "legacy_s": sampler_legacy_s,
            "vectorized_s": sampler_vectorized_s,
            "speedup": sampler_legacy_s / sampler_vectorized_s,
            "floor": SAMPLER_KERNEL_SPEEDUP_FLOOR,
        },
    }


def measure_fabric():
    """Fabric-vs-serial cold sweep timing on E2's quick grid plus
    warm-serve latency through a live server.

    The serial side is the bare write-through loop (the same
    ``compute_cell_payload`` bodies every sweep path runs), so the
    loopback ratio isolates the fabric's coordination tax.  The warm
    serve hammers a pre-swept store from ``FABRIC_SERVE_CLIENTS``
    concurrent clients and reports p50/p99 per request.
    """
    import shutil
    import tempfile

    from repro.fabric.cells import compute_cell_payload, sweep_keys
    from repro.fabric.service import ServerThread, load_test
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

    serial_s = min(timed_cold(serial) for _ in range(2))
    loopback_s = min(
        timed_cold(
            lambda store: fabric_sweep(
                keys,
                store=store,
                workers=FABRIC_WORKERS,
                transport="loopback",
            )
        )
        for _ in range(2)
    )
    tcp_s = timed_cold(
        lambda store: fabric_sweep(
            keys, store=store, workers=FABRIC_WORKERS, transport="tcp"
        )
    )

    root = tempfile.mkdtemp(prefix="repro-perf-serve-")
    try:
        store = ResultStore(root)
        fabric_sweep(
            keys, store=store, workers=FABRIC_WORKERS, transport="loopback"
        )
        server = ServerThread(store)
        try:
            report = load_test(
                "127.0.0.1",
                server.port,
                keys,
                clients=FABRIC_SERVE_CLIENTS,
                rounds=FABRIC_SERVE_ROUNDS,
                expect_hits=True,
            )
        finally:
            server.stop()
    finally:
        shutil.rmtree(root)

    return {
        "grid": "E2-quick",
        "cells": len(keys),
        "workers": FABRIC_WORKERS,
        "serial_s": serial_s,
        "fabric_loopback_s": loopback_s,
        "fabric_tcp_s": tcp_s,
        "loopback_overhead": loopback_s / serial_s,
        "overhead_ceiling": FABRIC_OVERHEAD_CEILING,
        "warm_serve": {
            "clients": report["clients"],
            "requests": report["requests"],
            "p50_ms": report["p50_ms"],
            "p99_ms": report["p99_ms"],
        },
    }


def measure():
    results = {
        "calibration_s": best_of(calibration_workload, repeats=5),
        "kernels": {
            name: best_of(kernel) for name, kernel in KERNELS.items()
        },
    }
    serial_s, workers4_s = time_e1_sweep()
    results["e1_sweep"] = {
        "grid": [list(point) for point in E1_GRID],
        "serial_s": serial_s,
        "workers4_s": workers4_s,
        "speedup_at_4_workers": serial_s / workers4_s,
    }
    results["kernel_speedups"] = measure_kernel_speedups()
    results["fabric"] = measure_fabric()
    results["machine"] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    return results


def check(baseline, current, tolerance):
    failures = []
    scale = current["calibration_s"] / baseline["calibration_s"]
    print(
        f"calibration: baseline {baseline['calibration_s']:.4f}s, "
        f"now {current['calibration_s']:.4f}s "
        f"(machine speed ratio {scale:.2f}x)"
    )
    for name, now_s in current["kernels"].items():
        base_s = baseline["kernels"].get(name)
        if base_s is None:
            print(f"  {name:<24} {now_s:.4f}s  (no baseline — run --update)")
            continue
        allowed = tolerance * base_s * scale
        verdict = "ok" if now_s <= allowed else "REGRESSION"
        print(
            f"  {name:<24} {now_s:.4f}s  baseline {base_s:.4f}s  "
            f"allowed {allowed:.4f}s  {verdict}"
        )
        if now_s > allowed:
            failures.append(
                f"{name}: {now_s:.4f}s > {tolerance}x calibrated "
                f"baseline {base_s * scale:.4f}s"
            )

    plain_s = current["kernels"]["tree_batched_and8"]
    nulltraced_s = current["kernels"]["tree_batched_and8_nulltraced"]
    overhead = nulltraced_s / plain_s
    verdict = (
        "ok" if overhead <= NULL_TRACER_OVERHEAD_CEILING else "REGRESSION"
    )
    print(
        f"  null-tracer overhead on the batched tree walk: "
        f"{overhead:.3f}x (ceiling {NULL_TRACER_OVERHEAD_CEILING}x)  "
        f"{verdict}"
    )
    if overhead > NULL_TRACER_OVERHEAD_CEILING:
        failures.append(
            f"NullTracer overhead {overhead:.3f}x > "
            f"{NULL_TRACER_OVERHEAD_CEILING}x ceiling on "
            f"tree_batched_and8 — a hot path is paying for tracing "
            f"while it is off"
        )

    sweep = current["e1_sweep"]
    cpus = current["machine"]["cpu_count"] or 1
    print(
        f"  e1 sweep: serial {sweep['serial_s']:.3f}s, 4 workers "
        f"{sweep['workers4_s']:.3f}s, speedup "
        f"{sweep['speedup_at_4_workers']:.2f}x on {cpus} CPU(s)"
    )
    if (
        cpus >= MIN_CPUS_FOR_SPEEDUP_CHECK
        and sweep["serial_s"] >= MIN_SERIAL_SECONDS_FOR_SPEEDUP_CHECK
    ):
        if sweep["speedup_at_4_workers"] < SPEEDUP_FLOOR:
            failures.append(
                f"e1 sweep speedup {sweep['speedup_at_4_workers']:.2f}x "
                f"< {SPEEDUP_FLOOR}x floor on a {cpus}-CPU machine"
            )
    else:
        print(
            f"  (speedup floor not enforced: needs >= "
            f"{MIN_CPUS_FOR_SPEEDUP_CHECK} CPUs and >= "
            f"{MIN_SERIAL_SECONDS_FOR_SPEEDUP_CHECK}s of serial work)"
        )

    speedups = current.get("kernel_speedups")
    if speedups is None:
        print("  kernel speedups: skipped (numpy unavailable)")
    else:
        enforce = cpus >= MIN_CPUS_FOR_SPEEDUP_CHECK
        for name, entry in speedups.items():
            verdict = "ok"
            if enforce and entry["speedup"] < entry["floor"]:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: vectorized/legacy speedup "
                    f"{entry['speedup']:.1f}x < {entry['floor']}x floor"
                )
            elif not enforce:
                verdict = "recorded (floor not enforced on this machine)"
            print(
                f"  {name}: legacy {entry['legacy_s']:.3f}s, vectorized "
                f"{entry['vectorized_s']:.3f}s, speedup "
                f"{entry['speedup']:.1f}x (floor {entry['floor']}x)  "
                f"{verdict}"
            )

    fabric = current["fabric"]
    enforce = cpus >= MIN_CPUS_FOR_SPEEDUP_CHECK
    overhead = fabric["loopback_overhead"]
    verdict = "ok"
    if enforce and overhead > FABRIC_OVERHEAD_CEILING:
        verdict = "REGRESSION"
        failures.append(
            f"fabric loopback sweep overhead {overhead:.2f}x > "
            f"{FABRIC_OVERHEAD_CEILING}x ceiling over the serial "
            f"write-through on {fabric['grid']}"
        )
    elif not enforce:
        verdict = "recorded (ceiling not enforced on this machine)"
    print(
        f"  fabric cold sweep ({fabric['grid']}, {fabric['cells']} cells, "
        f"{fabric['workers']} workers): serial {fabric['serial_s']:.3f}s, "
        f"loopback {fabric['fabric_loopback_s']:.3f}s "
        f"({overhead:.2f}x, ceiling {FABRIC_OVERHEAD_CEILING}x), "
        f"tcp {fabric['fabric_tcp_s']:.3f}s (recorded)  {verdict}"
    )
    serve = fabric["warm_serve"]
    base_serve = baseline.get("fabric", {}).get("warm_serve")
    if base_serve is None:
        print(
            f"  fabric warm serve: p50 {serve['p50_ms']:.2f}ms, p99 "
            f"{serve['p99_ms']:.2f}ms over {serve['requests']} requests "
            f"(no baseline — run --update)"
        )
    else:
        allowed_p99 = tolerance * base_serve["p99_ms"] * scale
        verdict = "ok"
        if enforce and serve["p99_ms"] > allowed_p99:
            verdict = "REGRESSION"
            failures.append(
                f"fabric warm-serve p99 {serve['p99_ms']:.2f}ms > "
                f"{tolerance}x calibrated baseline {allowed_p99:.2f}ms"
            )
        elif not enforce:
            verdict = "recorded (ceiling not enforced on this machine)"
        print(
            f"  fabric warm serve: p50 {serve['p50_ms']:.2f}ms, p99 "
            f"{serve['p99_ms']:.2f}ms over {serve['requests']} requests "
            f"from {serve['clients']} clients  "
            f"(p99 allowed {allowed_p99:.2f}ms)  {verdict}"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="re-measure and overwrite the baseline file",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="fail when a kernel exceeds this multiple of its calibrated "
             "baseline (default: 2.0)",
    )
    parser.add_argument(
        "--baseline",
        default=BASELINE_PATH,
        help="baseline JSON path (default: benchmarks/perf_baseline.json)",
    )
    args = parser.parse_args(argv)

    current = measure()
    if args.update:
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(current, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline written to {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        print(f"no baseline at {args.baseline}; run with --update first")
        return 2
    with open(args.baseline, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    failures = check(baseline, current, args.tolerance)
    if failures:
        print("\nperf regressions detected:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nno perf regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())

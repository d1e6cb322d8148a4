"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload exact-info --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the workload once untraced and once with every layer
wrapped (see ``layers.py``) and reports the per-layer metrics, including
the tracing overhead.  Every output is checked against the pins in
``digests.json``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a readable report that also names every
workload-specific metric.  The full report is written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from calibrate import Reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 5


def _setup(workload, seed: int, seconds: int, workdir: str):
    """Set up ``SETUP_REPEATS`` times: a fresh interpreter importing the
    workload's packages, then the workload's input preparation.  Returns
    the last plan and the median set-up time."""
    probe = (f"import sys; sys.path.insert(0, {SRC!r}); "
             f"import {workload.imports}")
    times = []
    plan = None
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", probe], check=True)
        plan = workload.prepare(seed, seconds, workdir)
        times.append(time.perf_counter() - started)
    return plan, statistics.median(times)


def _execute(workload, plan, ledger, pins):
    """Run the timed phase.  Returns the outcome, ``(seconds, reference
    units)`` of the phase without the reference checkpoints (on
    sweep-serve, of its median pass), the whole phase's seconds, and
    the reference."""
    reference = Reference()
    reference.checkpoint()
    started = time.perf_counter()
    outcome = workload.execute(plan, ledger, pins, reference)
    ended = time.perf_counter()
    reference.checkpoint()
    passes = [reference.measure(*span)
              for span in outcome.get("passes", [(started, ended)])]
    wall = (statistics.median(p[0] for p in passes),
            statistics.median(p[1] for p in passes))
    return outcome, wall, reference.measure(started, ended)[0], reference


def _untraced(workload, args, workdir, pins, ledger):
    plan, setup_s = _setup(workload, args.seed, args.seconds, workdir)
    outcome, (wall_s, wall_ref), _, reference = _execute(
        workload, plan, ledger, pins)
    # Each operation in seconds and in reference units; then medians
    # over the slices of the request stream, so one slow stretch moves
    # one slice, not the reported value.
    slices = [[reference.measure(*span) for span in part]
              for part in outcome["slices"] if part]

    def over_slices(stat, column):
        return statistics.median(
            [stat([op[column] for op in part]) for part in slices] or [0.0])

    def throughput(values):
        return len(values) / sum(values)

    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_ref": (wall_ref, "ref"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (
            (ledger.attempted - ledger.failed) / ledger.attempted, "ratio"),
        "ops_per_ref": (over_slices(throughput, 1), "1/ref"),
        "op_p50_ref": (over_slices(statistics.median, 1), "ref"),
    }
    named = {
        "wall_s": (wall_s, "s"),
        "ops_per_s": (over_slices(throughput, 0), "1/s"),
        "op_p50_ms": (over_slices(statistics.median, 0) * 1000.0, "ms"),
        "ref_s": (reference.seconds, "s"),
    }
    named.update(outcome["metrics"])
    return metrics, named


def _traced(workload, args, workdir, pins, ledger):
    from layers import Tracing, per_layer_metrics, per_layer_units
    from repro.obs.metrics import collecting

    plan = workload.prepare(args.seed, args.seconds, workdir)
    _, untraced_wall, _, _ = _execute(workload, plan, ledger, pins)
    plan = workload.prepare(args.seed, args.seconds, workdir)
    tracing = Tracing()
    tracing.install()
    try:
        with collecting(reset=True) as registry:
            outcome, traced_wall, traced_total_s, _ = _execute(
                workload, plan, ledger, pins)
            snapshot = registry.snapshot()
    finally:
        tracing.remove()
    values = per_layer_metrics(tracing, snapshot, traced_total_s,
                               traced_wall[0] / untraced_wall[0])
    units = per_layer_units()
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    named = dict(outcome["metrics"])
    named["untraced_wall_s"] = (untraced_wall[0], "s")
    named["traced_wall_s"] = (traced_wall[0], "s")
    return metrics, named


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from checks import Ledger, load_digests
    from machine import machine_record

    workload = WORKLOADS[args.workload]
    pins = load_digests()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    ledger = Ledger()
    try:
        if args.trace:
            metrics, named = _traced(workload, args, workdir, pins, ledger)
        else:
            metrics, named = _untraced(workload, args, workdir, pins, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": workload.uses_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(ROOT, args.seed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "workload_metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_ratio": ledger.fail_ratio,
        "failures": ledger.failures,
    }
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} (seed used: {workload.uses_seed})")
    print(f"# machine {json.dumps(report['machine'], sort_keys=True)}")
    for section, rows in (("metric", metrics), ("workload", named)):
        for name, (value, unit) in rows.items():
            print(f"{section:8} {name:48} {value:>16.6g} {unit}")
    print(f"# fail_ratio {ledger.fail_ratio} "
          f"({ledger.failed}/{ledger.attempted})")
    for failure in ledger.failures:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

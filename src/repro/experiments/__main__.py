"""Command-line experiment runner.

Usage::

    python -m repro.experiments            # list experiments
    python -m repro.experiments E1 E5      # run selected experiments
    python -m repro.experiments all        # run everything
    python -m repro.experiments all --save results/   # also write tables

    # Observability (see docs/observability.md):
    python -m repro.experiments E2 --trace out.jsonl   # JSONL trace stream
    python -m repro.experiments E7 --metrics           # per-experiment metrics
    python -m repro.experiments E1 --progress          # live sweep dashboard
    python -m repro.experiments E1 --telemetry t.jsonl # sweep snapshots
    python -m repro.experiments E1 --profile p.jsonl   # sampling profiler

    # Networked execution (see docs/networking.md).  --quick keeps the
    # sweep on the classic grid — the extended default's big points cost
    # tens of minutes when every message is framed over the wire:
    python -m repro.experiments E1 --quick --transport loopback
    python -m repro.experiments E1 --quick --transport loopback --fault-seed 7

    # Result store (see docs/store.md): cold run computes and
    # checkpoints, warm re-run is pure cache hits, byte-identical:
    python -m repro.experiments E1 E2 E4 --store .store

    # Fabric (see docs/fabric.md): fill the store over N sharded
    # workers first, then render the table from pure store hits:
    python -m repro.fabric sweep E1 --quick --store .store --workers 3
    python -m repro.experiments E1 --quick --store .store

Each experiment prints its rendered table (the same table the benchmark
harness writes to ``benchmarks/results/``).  With ``--trace`` every
instrumented subsystem (runner, exact analyzer, samplers)
streams structured events to the given JSONL file; with ``--metrics``
the process-wide registry is enabled and a counters/timing table is
printed after each experiment.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import sys
import time

from ..obs import REGISTRY, enable_metrics, render_metrics
from ..obs.harness import add_run_flags, add_sweep_flags, observing
from . import ALL_EXPERIMENTS


def _id_range() -> str:
    """Human-readable id range derived from the registry (never goes
    stale when experiments are added)."""
    order = sorted(ALL_EXPERIMENTS, key=_experiment_order)
    return f"{order[0]}..{order[-1]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper-reproduction experiment tables "
                    "(see DESIGN.md for the index).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiment ids ({_id_range()}) or 'all'; empty lists them",
    )
    parser.add_argument(
        "--save",
        metavar="DIR",
        help="also write each rendered table to DIR/<id>.txt",
    )
    add_run_flags(parser)
    add_sweep_flags(parser)
    parser.add_argument(
        "--profile",
        metavar="FILE",
        help="attach the seeded sampling profiler and stream samples to "
             "FILE as JSONL (rank with 'python -m repro.obs top FILE')",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        metavar="N",
        default=None,
        help="inject recoverable wire faults (drops, delays, corruption, "
             "crash-restart) seeded by N into experiments run with "
             "--transport loopback; results stay byte-identical",
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="N",
        default=None,
        help="evaluate experiment grids with N worker processes "
             "(experiments that support it; -1 means one per CPU; "
             "tables are byte-identical to the serial run)",
    )
    parser.add_argument(
        "--transport",
        choices=("memory", "loopback", "tcp"),
        default=None,
        help="execution backend for experiments that support it: "
             "'memory' runs protocols in-process, 'loopback'/'tcp' "
             "route every message through the repro.net broadcast "
             "runtime (tables are byte-identical across backends)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="sweep each grid experiment's quick grid (E1 and E16: "
             "the classic pre-extension grid; E2, E4, E14: their "
             "QUICK_KS) instead of the extended default — use with "
             "--transport loopback/tcp, where framing every message of "
             "the extended points costs tens of minutes",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="serve experiment grid cells from the content-addressed "
             "result store at DIR, checkpointing fresh cells into it "
             "(resumable sweeps; warm re-runs are pure cache hits and "
             "byte-identical — see docs/store.md)",
    )
    args = parser.parse_args(argv)

    if not args.experiments:
        print("available experiments:")
        for eid in sorted(ALL_EXPERIMENTS, key=_experiment_order):
            doc = ALL_EXPERIMENTS[eid].__module__.rsplit(".", 1)[-1]
            print(f"  {eid:<4} ({doc})")
        return 0

    selected = args.experiments
    if len(selected) == 1 and selected[0].lower() == "all":
        selected = sorted(ALL_EXPERIMENTS, key=_experiment_order)
    unknown = [e for e in selected if e.upper() not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment id(s): {', '.join(unknown)}")

    store = None
    if args.store:
        from ..store import ResultStore

        store = ResultStore(args.store)

    with observing(
        trace=args.trace,
        metrics=args.metrics,
        progress=args.progress,
        telemetry=args.telemetry,
        profile=args.profile,
    ) as tracer:
        for eid in selected:
            eid = eid.upper()
            if args.metrics:
                enable_metrics(reset=True)
            if tracer:
                tracer.event("experiment_start", experiment=eid)
            runner = ALL_EXPERIMENTS[eid]
            kwargs = {}
            if args.workers is not None and _supports_kwarg(
                runner, "workers"
            ):
                kwargs["workers"] = args.workers
            if args.transport is not None and _supports_kwarg(
                runner, "transport"
            ):
                kwargs["transport"] = args.transport
            if store is not None and _supports_kwarg(runner, "store"):
                kwargs["store"] = store
            if args.fault_seed is not None and _supports_kwarg(
                runner, "fault_seed"
            ):
                kwargs["fault_seed"] = args.fault_seed
            if args.quick:
                kwargs.update(_quick_kwargs(runner))
            started = time.monotonic()
            span = (
                tracer.span("experiment", experiment=eid)
                if tracer
                else contextlib.nullcontext()
            )
            with span:
                table = runner(**kwargs)
            elapsed = time.monotonic() - started
            if tracer:
                tracer.event(
                    "experiment_finish", experiment=eid, elapsed_s=elapsed
                )
            print(table.render())
            if args.metrics:
                REGISTRY.gauge("experiment_seconds").set(
                    elapsed, experiment=eid
                )
                print(render_metrics(REGISTRY, title=f"{eid} metrics"))
            print(f"({eid} completed in {elapsed:.1f}s)\n")
            if args.save:
                path = table.save(args.save)
                print(f"saved to {path}\n")
    return 0


def _experiment_order(eid: str) -> int:
    return int(eid[1:])


def _quick_kwargs(runner) -> dict:
    """The ``run`` arguments ``--quick`` means for one experiment:
    ``quick=True`` where ``run`` takes it, else its module's
    ``QUICK_KS`` as ``ks``, else none (the experiment has one grid)."""
    if _supports_kwarg(runner, "quick"):
        return {"quick": True}
    quick_ks = getattr(sys.modules[runner.__module__], "QUICK_KS", None)
    if quick_ks is not None and _supports_kwarg(runner, "ks"):
        return {"ks": quick_ks}
    return {}


def _supports_kwarg(runner, name: str) -> bool:
    """Whether an experiment's ``run`` accepts the given kwarg (e.g.
    ``workers`` for grid-style sweeps routed through
    :func:`repro.perf.map_grid`, ``transport`` for experiments that can
    execute over the networked runtime)."""
    try:
        return name in inspect.signature(runner).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False


if __name__ == "__main__":
    sys.exit(main())

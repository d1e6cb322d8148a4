"""Command-line fabric driver.

Usage::

    # Shard an experiment's default grid across a worker pool, warming
    # the content-addressed store (cold cells computed, warm cells
    # skipped; resumable after SIGKILL of anything), then render the
    # table from pure store hits:
    python -m repro.fabric sweep E1 --quick --store .store --workers 3
    python -m repro.experiments E1 --quick --store .store
    python -m repro.fabric sweep E2 --store .store --workers 4 \
        --transport loopback --fault-seed 7

    # Serve ResultKey lookups read-through against the store (a cold
    # key triggers a sharded sweep; a warm key is zero recompute):
    python -m repro.fabric serve --store .store --port 9411

    # Look up one cell from a running server:
    python -m repro.fabric get --connect 127.0.0.1:9411 \
        --experiment E2 --params '{"k": 8}'

    # Hammer a server from concurrent clients, printing p50/p99:
    python -m repro.fabric loadtest --connect 127.0.0.1:9411 E1 --quick \
        --clients 8 --expect-hits

    # The worker loop ``sweep --transport tcp`` spawns (also usable to
    # attach extra workers to a live coordinator):
    python -m repro.fabric worker --connect 127.0.0.1:9500 --store .store

``sweep`` and ``serve`` take the observability flags of ``python -m
repro.experiments`` (declared once in :mod:`repro.obs.harness`):
``--trace`` for JSONL trace trees, ``--telemetry``/``--progress`` for
sweep snapshots and the live dashboard, ``--metrics`` for the counters
table (see docs/observability.md; the fabric counters are the
``fabric_*`` family).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading

from ..obs.harness import add_run_flags, add_sweep_flags, observing
from ..store.keys import ResultKey, code_version
from ..store.store import ResultStore
from .cells import SWEEPABLE_EXPERIMENTS, sweep_keys
from .scheduler import DEFAULT_MAX_ATTEMPTS
from .service import FabricClient, ServerThread, load_test
from .sweep import FABRIC_TRANSPORTS, fabric_sweep
from .tcp import run_worker


def _parse_connect(value: str):
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}"
        )
    return host, int(port)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fabric",
        description="Sharded sweep coordinator and result-serving API "
                    "over the content-addressed store (docs/fabric.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="shard an experiment grid across a worker pool"
    )
    sweep.add_argument(
        "experiment",
        choices=SWEEPABLE_EXPERIMENTS,
        help="store-backed experiment whose default grid to sweep",
    )
    sweep.add_argument("--store", required=True, metavar="DIR")
    sweep.add_argument("--workers", type=int, default=2, metavar="N")
    sweep.add_argument(
        "--transport", choices=FABRIC_TRANSPORTS, default="tcp"
    )
    sweep.add_argument(
        "--quick",
        action="store_true",
        help="warm exactly the cells 'python -m repro.experiments E "
             "--quick' renders: each experiment's quick grid (E1 and "
             "E16: the classic pre-extension grid; E2, E4, E14: their "
             "QUICK_KS)",
    )
    sweep.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="N",
        help="inject the seeded recoverable chaos plan (drops, delays, "
             "corruption, crash-restart; loopback transport only) — "
             "the store contents stay byte-identical",
    )
    sweep.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="S",
        help="wall-clock bound on the whole sweep (tcp transport)",
    )
    sweep.add_argument(
        "--max-attempts",
        type=int,
        default=DEFAULT_MAX_ATTEMPTS,
        metavar="N",
        help="per-cell dispatch budget before RetriesExhaustedError "
             f"(default {DEFAULT_MAX_ATTEMPTS}; raise it to outlast an "
             "aggressive --fault-seed plan on a small grid)",
    )
    add_run_flags(sweep)
    add_sweep_flags(sweep)

    serve = sub.add_parser(
        "serve", help="serve ResultKey lookups read-through on the store"
    )
    serve.add_argument("--store", required=True, metavar="DIR")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="sharded-sweep pool size for cold keys",
    )
    add_run_flags(serve)
    add_sweep_flags(serve)

    get = sub.add_parser("get", help="look up one cell from a server")
    get.add_argument(
        "--connect", required=True, type=_parse_connect, metavar="HOST:PORT"
    )
    get.add_argument("--experiment", required=True, metavar="ID")
    get.add_argument(
        "--params",
        required=True,
        metavar="JSON",
        help="cell parameters as a JSON object, e.g. '{\"k\": 8}'",
    )
    get.add_argument("--seed", type=int, default=None, metavar="N")
    get.add_argument(
        "--version",
        default=None,
        metavar="V",
        help="code version to address (defaults to this checkout's)",
    )

    loadtest = sub.add_parser(
        "loadtest", help="hammer a server from concurrent clients"
    )
    loadtest.add_argument(
        "--connect", required=True, type=_parse_connect, metavar="HOST:PORT"
    )
    loadtest.add_argument(
        "experiment",
        choices=SWEEPABLE_EXPERIMENTS,
        help="experiment whose default grid keys to request",
    )
    loadtest.add_argument("--quick", action="store_true")
    loadtest.add_argument("--clients", type=int, default=8, metavar="N")
    loadtest.add_argument("--rounds", type=int, default=1, metavar="N")
    loadtest.add_argument(
        "--expect-hits",
        action="store_true",
        help="fail unless every request was a warm store hit",
    )

    worker = sub.add_parser(
        "worker", help="blocking worker loop for a tcp coordinator"
    )
    worker.add_argument(
        "--connect", required=True, type=_parse_connect, metavar="HOST:PORT"
    )
    worker.add_argument("--store", default=None, metavar="DIR")

    args = parser.parse_args(argv)

    if args.command == "worker":
        host, port = args.connect
        cells = run_worker(host, port, store_dir=args.store)
        print(f"worker computed {cells} cells", file=sys.stderr)
        return 0

    if args.command == "get":
        host, port = args.connect
        key = ResultKey(
            experiment=args.experiment,
            params=json.loads(args.params),
            seed=args.seed,
            version=args.version or code_version(args.experiment),
        )
        with FabricClient(host, port) as client:
            payload, hit = client.get(key)
        sys.stdout.write(payload.decode("ascii"))
        sys.stdout.write("\n")
        print(
            f"({'store hit' if hit else 'cold computation'}, "
            f"digest {key.digest[:12]})",
            file=sys.stderr,
        )
        return 0

    if args.command == "loadtest":
        host, port = args.connect
        keys = sweep_keys(args.experiment, quick=args.quick)
        report = load_test(
            host,
            port,
            keys,
            clients=args.clients,
            rounds=args.rounds,
            expect_hits=args.expect_hits,
        )
        print(json.dumps(report, sort_keys=True))
        return 0

    # sweep / serve share the observability harness.
    with observing(
        trace=args.trace,
        metrics=args.metrics,
        progress=args.progress,
        telemetry=args.telemetry,
        metrics_title="fabric metrics",
    ):
        if args.command == "sweep":
            return _run_sweep(args)
        return _run_serve(args)


def _run_sweep(args) -> int:
    faults = None
    if args.fault_seed is not None:
        if args.transport != "loopback":
            print(
                "error: --fault-seed requires --transport loopback "
                "(TCP delivers reliably)",
                file=sys.stderr,
            )
            return 2
        from ..net.faults import chaos_plan

        faults = chaos_plan(args.fault_seed)
    store = ResultStore(args.store)
    keys = sweep_keys(args.experiment, quick=args.quick)
    report = fabric_sweep(
        keys,
        store=store,
        workers=args.workers,
        transport=args.transport,
        faults=faults,
        max_attempts=args.max_attempts,
        timeout=args.timeout,
    )
    print(
        f"{args.experiment}: {report['cells']} cells — "
        f"{report['hits']} store hits, {report['computed']} computed "
        f"over {args.workers} {args.transport} workers"
    )
    return 0


def _run_serve(args) -> int:
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    server = ServerThread(
        ResultStore(args.store),
        host=args.host,
        port=args.port,
        sweep_workers=args.workers,
    )
    print(f"fabric server listening on {args.host}:{server.port}")
    sys.stdout.flush()
    try:
        stop.wait()
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line fuzz harness.

Usage::

    python -m repro.check --seed 0 --cases 500       # the nightly budget
    python -m repro.check --seed 0 --cases 25        # the PR smoke budget
    python -m repro.check --seed 7 --cases 100 --oracles invariants,topology-discipline
    python -m repro.check --replay .fuzz-failures/case-12-seed-123.json

    # Observability (see docs/observability.md):
    python -m repro.check --seed 0 --cases 50 --trace out.jsonl --metrics

On failure the harness shrinks each failing case to a minimal witness
and writes a replayable JSON bundle under ``--bundle-dir`` (default
``.fuzz-failures/``), then exits non-zero.  ``--max-seconds`` caps wall
clock (the run stops cleanly and still reports); ``--replay`` rebuilds a
bundle's shrunk witness and re-runs its failing oracles.
"""

from __future__ import annotations

import argparse
import sys

from ..obs.harness import add_run_flags, observing
from .bundle import load_bundle, replay_bundle
from .harness import run_suite
from .oracles import ALL_ORACLES, oracle_by_name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Seeded random-protocol fuzzing with property "
                    "oracles (see docs/testing.md).",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master seed of the case stream"
    )
    parser.add_argument(
        "--cases", type=int, default=100, help="number of cases to generate"
    )
    parser.add_argument(
        "--oracles",
        metavar="NAMES",
        help="comma-separated subset of oracles to run "
             f"(default: all of {','.join(o.name for o in ALL_ORACLES)})",
    )
    parser.add_argument(
        "--bundle-dir",
        metavar="DIR",
        default=".fuzz-failures",
        help="where to write repro bundles for failing cases",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        metavar="S",
        default=None,
        help="wall-clock budget; the run stops cleanly when it is spent",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="serialize failing cases unshrunk (faster triage loop)",
    )
    parser.add_argument(
        "--replay",
        metavar="BUNDLE",
        help="re-run a bundle's failing oracles on its shrunk witness "
             "instead of fuzzing",
    )
    add_run_flags(parser)
    args = parser.parse_args(argv)

    oracles = ALL_ORACLES
    try:
        if args.oracles:
            oracles = tuple(
                oracle_by_name(name.strip())
                for name in args.oracles.split(",")
                if name.strip()
            )
        if args.replay:
            # A bundle may name an oracle this version no longer has.
            for name in load_bundle(args.replay).failing_oracles:
                oracle_by_name(name)
    except KeyError as error:
        parser.error(str(error))

    with observing(
        trace=args.trace,
        metrics=args.metrics,
        metrics_title="repro.check metrics",
    ):
        if args.replay:
            return _replay(args.replay)
        return _fuzz(args, oracles)


def _fuzz(args, oracles) -> int:
    def progress(done: int, total: int) -> None:
        if done % 50 == 0 or done == total:
            print(f"  checked {done}/{total} cases", flush=True)

    report = run_suite(
        args.seed,
        args.cases,
        oracles=oracles,
        bundle_dir=args.bundle_dir,
        max_seconds=args.max_seconds,
        shrink=not args.no_shrink,
        progress=progress,
    )
    verdict = "OK" if report.ok else "FAIL"
    budget_note = " (wall-clock budget exhausted)" if report.budget_exhausted else ""
    print(
        f"{verdict}: {report.cases_run}/{report.cases_requested} cases, "
        f"{len(oracles)} oracles each, {report.elapsed_seconds:.1f}s"
        f"{budget_note}"
    )
    for failing in report.failures:
        names = ", ".join(result.oracle for result in failing.failures)
        print(
            f"  case {failing.case.index} (seed {failing.case.spec.seed}) "
            f"failed: {names}"
        )
        for result in failing.failures:
            print(f"    [{result.oracle}] {result.details}")
    for path in report.bundle_paths:
        print(f"  repro bundle: {path}")
    return 0 if report.ok else 1


def _replay(path: str) -> int:
    bundle = load_bundle(path)
    names = ", ".join(bundle.failing_oracles) or "all"
    print(
        f"replaying bundle {path} (case {bundle.case_index}, "
        f"oracles: {names})"
    )
    results = replay_bundle(path)
    for result in results:
        marker = "ok" if result.ok else "FAIL"
        print(f"  [{result.oracle}] {marker}: {result.details}")
    return 0 if all(result.ok for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())

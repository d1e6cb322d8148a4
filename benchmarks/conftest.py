"""Shared helpers for the benchmark harness.

Each ``test_eN_*.py`` regenerates one experiment from DESIGN.md's
index: it runs the full experiment sweep once, asserts the paper's
qualitative shape, and writes the rendered result table to
``benchmarks/results/EN.txt``.  ``test_perf_guards.py`` holds the
same-process timing guards; perfbench (``perfbench/run.py``) does all
other performance measurement.

Every benchmark test additionally runs with the process-wide metrics
registry enabled (the autouse ``obs_metrics`` fixture below): whatever
counters/histograms the instrumented subsystems record during the test
are rendered to ``benchmarks/results/metrics/<test>.txt``, so each
experiment leaves behind a runtime-cost ledger next to its result table.
"""

import os
import re

import pytest

from repro.obs import REGISTRY, render_metrics

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
METRICS_DIR = os.path.join(RESULTS_DIR, "metrics")
STORE_DIR = os.path.join(os.path.dirname(__file__), ".store")


def experiment_store():
    """The benchmark harness's shared result store (``repro.store``).

    Experiments that support it regenerate their ``results/EN.txt``
    through the store: the first run computes and checkpoints every grid
    cell, later runs are pure cache hits with byte-identical tables
    (``docs/store.md``).  Set ``REPRO_BENCH_STORE=0`` to force cold
    runs, or point it at a different directory.
    """
    from repro.store import ResultStore

    configured = os.environ.get("REPRO_BENCH_STORE", STORE_DIR)
    if configured in ("", "0"):
        return None
    return ResultStore(configured)


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def save_and_echo(table, directory):
    """Save an ExperimentTable and echo it to stdout (visible with -s or
    on failure)."""
    path = table.save(directory)
    print()
    print(table.render())
    return path


@pytest.fixture(autouse=True)
def obs_metrics(request):
    """Collect runtime metrics for the duration of each benchmark test
    and persist the snapshot to ``results/metrics/<test>.txt``."""
    was_enabled = REGISTRY.enabled
    REGISTRY.reset()
    REGISTRY.enabled = True
    try:
        yield REGISTRY
    finally:
        snapshot = REGISTRY.snapshot()
        REGISTRY.enabled = was_enabled
        REGISTRY.reset()
        if not snapshot.empty:
            os.makedirs(METRICS_DIR, exist_ok=True)
            name = re.sub(r"[^A-Za-z0-9_.-]+", "_", request.node.name)
            path = os.path.join(METRICS_DIR, f"{name}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(
                    render_metrics(snapshot, title=request.node.name)
                )

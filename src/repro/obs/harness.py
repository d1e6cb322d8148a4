"""The observability harness shared by ``python -m repro.experiments``,
``python -m repro.fabric`` and ``python -m repro.check``: the flags,
declared once here, and :func:`observing`, which turns the parsed
flags into an installed tracer, telemetry sink and profiler."""

from __future__ import annotations

import argparse
from contextlib import contextmanager
from typing import Iterator, Optional

from .metrics import REGISTRY, disable_metrics, enable_metrics
from .report import render_metrics
from .telemetry import ProgressRenderer, TelemetrySink, using_telemetry
from .trace import JsonlTracer, using_tracer

__all__ = ["add_run_flags", "add_sweep_flags", "observing"]


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Declare ``--trace`` and ``--metrics``."""
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="stream structured trace events (runner messages, tree "
             "enumeration, sampler rounds, ...) to FILE as JSONL",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect runtime metrics and print the counters/timing "
             "table",
    )


def add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    """Declare ``--progress`` and ``--telemetry``, the views of a grid
    sweep."""
    parser.add_argument(
        "--progress",
        action="store_true",
        help="live terminal dashboard for grid sweeps (cells done/total, "
             "hit rate, throughput, fault counts, ETA) on stderr",
    )
    parser.add_argument(
        "--telemetry",
        metavar="FILE",
        help="stream periodic sweep-telemetry snapshots to FILE as JSONL "
             "(schema in docs/observability.md)",
    )


@contextmanager
def observing(
    *,
    trace: Optional[str] = None,
    metrics: bool = False,
    progress: bool = False,
    telemetry: Optional[str] = None,
    profile: Optional[str] = None,
    metrics_title: Optional[str] = None,
) -> Iterator[Optional[JsonlTracer]]:
    """Install what the flags ask for, yield the tracer (or ``None``),
    and close and name every written file on exit.  Collection is on for
    ``metrics`` and for ``progress``/``telemetry`` (their snapshots read
    the registry); the counters table titled ``metrics_title`` is printed
    at exit only for ``metrics``."""
    tracer = JsonlTracer(trace) if trace else None
    sink = None
    if telemetry or progress:
        sink = TelemetrySink(
            telemetry, renderer=ProgressRenderer() if progress else None
        )
    collect = metrics or sink is not None
    if collect:
        enable_metrics(reset=True)
    profiler = None
    if profile:
        from .profile import SamplingProfiler

        profiler = SamplingProfiler(profile)
        profiler.start()
    try:
        with using_tracer(tracer), using_telemetry(sink):
            yield tracer
    finally:
        if profiler is not None:
            profiler.stop()
            print(f"profile written to {profile}")
        if metrics and metrics_title is not None:
            print(render_metrics(REGISTRY, title=metrics_title))
        if collect:
            disable_metrics()
        if sink is not None:
            sink.close()
            if telemetry:
                print(f"telemetry written to {telemetry}")
        if tracer:
            tracer.close()
            print(f"trace written to {trace}")

"""The observability harness shared by ``python -m repro.experiments``
and ``python -m repro.fabric``: their observability flags in, an
installed tracer, telemetry sink and profiler out."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .metrics import REGISTRY, disable_metrics, enable_metrics
from .report import render_metrics
from .telemetry import ProgressRenderer, TelemetrySink, using_telemetry
from .trace import JsonlTracer, using_tracer

__all__ = ["observing"]


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

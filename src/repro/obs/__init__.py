"""Observability for the reproduction: structured tracing + metrics.

The runtime's hot subsystems — :func:`repro.core.runner.run_protocol`,
the exact tree analyzer and the Lemma 7 samplers — are instrumented
against this package:

* :mod:`repro.obs.trace` — span/event tracing.  Default is the falsy
  :class:`NullTracer` (zero hot-path overhead); a
  :class:`RecordingTracer` captures in memory, a :class:`JsonlTracer`
  streams to a file, and :func:`using_tracer` installs a process-wide
  default so whole experiments can be traced from the CLI
  (``python -m repro.experiments E2 --trace out.jsonl``).
* :mod:`repro.obs.metrics` — a process-wide registry of labeled
  counters, gauges, and log-scale histograms (``bits_written``,
  ``tree_nodes_expanded``, ``sampler_darts_rejected``, ...), off by default, enabled with :func:`collecting` or the CLI's
  ``--metrics`` flag.
* :mod:`repro.obs.report` — renders a metrics snapshot in the same
  fixed-width table style as :mod:`repro.experiments.tables`.

See ``docs/observability.md`` for the event schema and usage.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "trace": (
        "JsonlTracer",
        "NULL_TRACER",
        "NullTracer",
        "RecordingTracer",
        "TraceContext",
        "TraceEvent",
        "Tracer",
        "get_tracer",
        "new_trace_id",
        "read_trace",
        "set_tracer",
        "using_tracer",
    ),
    "metrics": (
        "Counter",
        "Gauge",
        "Histogram",
        "HistogramValue",
        "MetricsRegistry",
        "MetricsSnapshot",
        "REGISTRY",
        "collecting",
        "disable_metrics",
        "enable_metrics",
    ),
    "report": ("render_metrics", "render_table"),
    "telemetry": (
        "ProgressRenderer",
        "TelemetrySink",
        "get_telemetry",
        "read_telemetry",
        "set_telemetry",
        "using_telemetry",
    ),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Tracer",
    "TraceContext",
    "TraceEvent",
    "new_trace_id",
    "NullTracer",
    "NULL_TRACER",
    "RecordingTracer",
    "JsonlTracer",
    "read_trace",
    "get_tracer",
    "set_tracer",
    "using_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "MetricsRegistry",
    "MetricsSnapshot",
    "REGISTRY",
    "collecting",
    "enable_metrics",
    "disable_metrics",
    "render_metrics",
    "render_table",
    "TelemetrySink",
    "ProgressRenderer",
    "read_telemetry",
    "get_telemetry",
    "set_telemetry",
    "using_telemetry",
]

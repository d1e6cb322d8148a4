"""Process-wide metrics: counters, gauges, and log-scale histograms.

The registry aggregates labeled series, Prometheus-style::

    from repro.obs import REGISTRY

    REGISTRY.counter("bits_written").inc(run.bits_communicated,
                                         protocol="seq_and", k=4)
    REGISTRY.histogram("message_bits").observe(len(message))

Collection is **off by default**: ``REGISTRY.enabled`` is ``False``, and
every mutation method returns immediately when the registry is disabled.
Hot paths additionally hoist the check out of their inner loops (they
bind ``reg = REGISTRY if REGISTRY.enabled else None`` once per call), so
a disabled registry costs nothing per message / per dart / per tree
node.  Enable collection with :func:`enable_metrics` or scoped with
:func:`collecting`.

Histograms are log-scale: values land in buckets ``(2^(e-1), 2^e]``
(plus a ``<= 0`` bucket), the right resolution for quantities that the
paper's analysis treats logarithmically — message lengths, candidate-set
sizes, dart counts, divergences.

Metric naming used by the instrumented subsystems:

====================================  =======================================
``runner_executions``                 protocol executions (``run_protocol``,
                                      every medium)
``bits_written``                      realized communication, by protocol
``runner_messages``                   messages written, by protocol
``message_bits`` (histogram)          per-message bit lengths
``tree_nodes_expanded``               exact-analyzer nodes popped
``tree_leaves``                       distinct transcripts enumerated
``tree_memo_hits``                    batched-walk memo hits, by protocol
``tree_memo_misses``                  batched-walk memo misses, by protocol
``tree_depth`` (histogram)            enumeration depth per call
``tree_support`` (histogram)          transcript-support size per call
``topology_view_rebuilds``            per-node view projections computed,
                                      by medium
``sampler_rounds``                    Lemma 7 rounds simulated, by path
``sampler_darts_thrown``              darts examined (naive path)
``sampler_darts_rejected``            darts rejected before acceptance
``sampler_aborts``                    block-limit truncations fired
``sampler_s`` (histogram)             accepted log-ratios ``s``
``sampler_candidates`` (histogram)    candidate-set sizes ``|P'|``
``sampler_bits`` (histogram)          total bits per sampled message
``check_cases``                       fuzz cases finished, by verdict
``check_oracle_runs``                 oracle checks, by oracle and verdict
``check_failures``                    failing oracle checks, by oracle
``net_frames_sent``                   wire frames sent, by kind and transport
``net_bytes_on_wire``                 encoded frame bytes, by transport
``net_retries``                       party watchdog retries, by party
``net_faults_injected``               injected faults, by fault and transport
``net_byz_echoes``                    Bracha ECHO votes counted, by party
``net_byz_readies``                   Bracha READY votes counted, by party
``net_byz_deliveries``                Bracha sessions delivered, by party
``net_byz_equivocations_detected``    conflicting votes/SENDs rejected, by
                                      party (first vote kept)
``net_byz_replays_ignored``           stale or duplicate votes dropped, by
                                      party
``net_byz_forged_rejected``           wrong-author SENDs rejected, by party
``store_hits``                        result-store cache hits, by experiment
``store_misses``                      result-store misses, by experiment
``store_bytes``                       payload bytes served/persisted, by
                                      direction (``read``/``write``)
``store_evictions``                   entries evicted by ``gc``
``fabric_cells_dispatched``           fabric leases granted, by experiment
                                      and ``stolen`` (``yes``/``no``)
``fabric_cells_completed``            fabric cells completed, by experiment,
                                      worker and ``recomputed`` (``yes``/
                                      ``no``: served from the worker's store)
``fabric_steals``                     work-stealing dispatches
``fabric_retries``                    cell re-dispatches, by reason
                                      (``lease-expired``/``worker-lost``/
                                      ``error``)
``fabric_leases_expired``             leases past their deadline
``fabric_workers_lost``               worker connections/processes lost
``fabric_frames``                     fabric wire frames sent, by kind and
                                      transport
``fabric_bytes_on_wire``              encoded fabric frame bytes, by
                                      transport
``fabric_requests``                   result-serving lookups, by outcome
                                      (``hit``/``cold``) and experiment
``grid_tasks``                        sweep tasks submitted, by mode
``grid_tasks_done``                   sweep tasks completed, by worker (dense
                                      first-seen index; ``0`` when serial)
``grid_workers`` (gauge)              worker-pool size of the last sweep
``kernel_vectorized_calls``           array-path invocations, by op
``experiment_seconds`` (gauge)        wall time per experiment (CLI)
====================================  =======================================

(tests/obs/test_metrics_inventory.py scans ``src/`` and fails if a
counter or gauge is emitted that this table does not document.)
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "MetricsRegistry",
    "MetricsSnapshot",
    "REGISTRY",
    "enable_metrics",
    "disable_metrics",
    "collecting",
]

#: A label set normalized to a hashable, deterministic key.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def bucket_index(value: float) -> Optional[int]:
    """The log-2 bucket of ``value``: the smallest integer ``e`` with
    ``value <= 2**e`` (so bucket ``e`` covers ``(2^(e-1), 2^e]``).
    ``None`` is the ``<= 0`` bucket."""
    if value <= 0:
        return None
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
    if mantissa == 0.5:  # exact power of two: 2**(exponent-1)
        return exponent - 1
    return exponent


class _Metric:
    """Shared labeled-series plumbing; mutations no-op when the owning
    registry is disabled."""

    kind = "metric"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str):
        self.registry = registry
        self.name = name
        self.help = help

    def _series(self) -> Dict[LabelKey, Any]:
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing sum per label set."""

    kind = "counter"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = ""):
        super().__init__(registry, name, help)
        self.series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount!r}")
        key = _label_key(labels)
        with self.registry._lock:
            self.series[key] = self.series.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        return self.series.get(_label_key(labels), 0)

    def total(self) -> float:
        """Sum over all label sets."""
        return sum(self.series.values())

    def _series(self) -> Dict[LabelKey, Any]:
        return self.series


class Gauge(_Metric):
    """A last-write-wins value per label set (timings, sizes)."""

    kind = "gauge"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = ""):
        super().__init__(registry, name, help)
        self.series: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        with self.registry._lock:
            self.series[_label_key(labels)] = value

    def value(self, **labels: Any) -> Optional[float]:
        return self.series.get(_label_key(labels))

    def _series(self) -> Dict[LabelKey, Any]:
        return self.series


@dataclass
class HistogramValue:
    """The accumulated state of one histogram series."""

    count: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    buckets: Dict[Optional[int], int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.buckets is None:
            self.buckets = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = bucket_index(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan


class Histogram(_Metric):
    """A log-2-bucketed distribution per label set."""

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = ""):
        super().__init__(registry, name, help)
        self.series: Dict[LabelKey, HistogramValue] = {}

    def observe(self, value: float, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        key = _label_key(labels)
        with self.registry._lock:
            state = self.series.get(key)
            if state is None:
                state = self.series[key] = HistogramValue()
            state.observe(value)

    def value(self, **labels: Any) -> Optional[HistogramValue]:
        return self.series.get(_label_key(labels))

    def _series(self) -> Dict[LabelKey, Any]:
        return self.series


@dataclass(frozen=True)
class MetricsSnapshot:
    """A point-in-time copy of every series in a registry, decoupled
    from further mutation (what the benchmark fixture persists)."""

    counters: Dict[str, Dict[LabelKey, float]]
    gauges: Dict[str, Dict[LabelKey, float]]
    histograms: Dict[str, Dict[LabelKey, HistogramValue]]

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)


class MetricsRegistry:
    """A named collection of metrics.  ``enabled`` gates all mutation."""

    def __init__(self, *, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    # ------------------------------------------------------------------
    def _get(self, name: str, factory, help: str) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = self._metrics[name] = factory(self, name, help)
        if not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a "
                f"{factory.__name__.lower()}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(name, Histogram, help)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def metrics(self) -> List[_Metric]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Drop every recorded series (registrations are dropped too; a
        fresh run re-creates them lazily)."""
        with self._lock:
            self._metrics.clear()

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a :class:`MetricsSnapshot` into this registry.

        Counters add, gauges take the snapshot's value (last write wins,
        so merge snapshots in a deterministic order), histograms combine
        their counts/sums/extrema/buckets.  This is how worker-process
        metrics collected by :func:`repro.perf.map_grid` flow back into
        the parent registry; merging is a no-op while the registry is
        disabled, matching every other mutation path.
        """
        if not self.enabled:
            return
        for name, series in snapshot.counters.items():
            counter = self.counter(name)
            with self._lock:
                for key, value in series.items():
                    counter.series[key] = counter.series.get(key, 0) + value
        for name, series in snapshot.gauges.items():
            gauge = self.gauge(name)
            with self._lock:
                for key, value in series.items():
                    gauge.series[key] = value
        for name, series in snapshot.histograms.items():
            histogram = self.histogram(name)
            with self._lock:
                for key, value in series.items():
                    state = histogram.series.get(key)
                    if state is None:
                        state = histogram.series[key] = HistogramValue()
                    state.count += value.count
                    state.sum += value.sum
                    if value.min < state.min:
                        state.min = value.min
                    if value.max > state.max:
                        state.max = value.max
                    for bucket, count in value.buckets.items():
                        state.buckets[bucket] = (
                            state.buckets.get(bucket, 0) + count
                        )

    def snapshot(self) -> MetricsSnapshot:
        """Copy out all non-empty series."""
        counters: Dict[str, Dict[LabelKey, float]] = {}
        gauges: Dict[str, Dict[LabelKey, float]] = {}
        histograms: Dict[str, Dict[LabelKey, HistogramValue]] = {}
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                series = metric._series()
                if not series:
                    continue
                if isinstance(metric, Counter):
                    counters[name] = dict(series)
                elif isinstance(metric, Gauge):
                    gauges[name] = dict(series)
                else:
                    histograms[name] = {
                        key: HistogramValue(
                            count=v.count,
                            sum=v.sum,
                            min=v.min,
                            max=v.max,
                            buckets=dict(v.buckets),
                        )
                        for key, v in series.items()
                    }
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )


#: The process-wide registry every instrumented subsystem reports to.
REGISTRY = MetricsRegistry()


def enable_metrics(*, reset: bool = True) -> MetricsRegistry:
    """Turn on collection on the process-wide registry (optionally
    clearing previous series) and return it."""
    if reset:
        REGISTRY.reset()
    REGISTRY.enabled = True
    return REGISTRY


def disable_metrics() -> None:
    REGISTRY.enabled = False


@contextmanager
def collecting(*, reset: bool = True) -> Iterator[MetricsRegistry]:
    """Enable the process-wide registry for the duration of a block."""
    was_enabled = REGISTRY.enabled
    enable_metrics(reset=reset)
    try:
        yield REGISTRY
    finally:
        REGISTRY.enabled = was_enabled
